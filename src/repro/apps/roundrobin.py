"""Round-robin request workload (§5.1, Fig 8b).

Each CPU core generates send requests in a round-robin manner over its
own distinct set of 16 flows, so FtEngine receives events of *different*
flows back to back — the multi-flow stress case that parallel FPCs
target (Table 2).  Its end-to-end rate model is
:class:`~repro.apps.iperf.BulkTransferModel` with the RR software path's
cycles per send.
"""

from __future__ import annotations

from ..traffic import Fixed, Scenario, TrafficClass


def round_robin_scenario(
    flows: int, requests_per_flow: int, request_bytes: int
) -> Scenario:
    """Round-robin requests as a traffic scenario: one-way streams."""
    return Scenario(
        name="roundrobin",
        description="closed-loop one-way request streams over many flows",
        server_port=80,
        classes=[
            TrafficClass(
                name="rr",
                request=Fixed(request_bytes),
                response=Fixed(0),
                connections=flows,
                rounds=requests_per_flow,
            )
        ],
    )
