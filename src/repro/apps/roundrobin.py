"""Round-robin request workload (§5.1, Fig 8b).

Each CPU core generates send requests in a round-robin manner over its
own distinct set of 16 flows, so FtEngine receives events of *different*
flows back to back — the multi-flow stress case that parallel FPCs
target (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..host.calibration import F4T_CYCLES_PER_SEND_RR
from ..host.cpu import CpuModel
from ..host.pcie import PcieModel
from ..net.link import LINK_100G
from ..traffic import Fixed, Scenario, TrafficClass
from .iperf import BulkResult

FLOWS_PER_CORE = 16


def round_robin_scenario(
    flows: int = FLOWS_PER_CORE,
    requests_per_flow: int = 64,
    request_bytes: int = 128,
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


@dataclass
class RoundRobinModel:
    """Fig 8b's F4T curve: like bulk but with the costlier RR software path.

    Under link backpressure the increased packet-generation period lets
    events accumulate, growing packet sizes (§5.1) — so the link term is
    byte-granular here too, and F4T converges near 90 Gbps goodput.
    """

    cores: int = 1

    def request_rate(self, request_bytes: int, mss: int = 1460) -> BulkResult:
        cpu = CpuModel(cores=self.cores)
        software = cpu.rate_for(
            F4T_CYCLES_PER_SEND_RR + 0.05 * max(0, request_bytes - 128)
        )
        pcie = PcieModel().max_requests_per_s(request_bytes)
        link_goodput = LINK_100G.max_goodput_gbps(mss) * 1e9 / 8
        link = link_goodput / request_bytes
        rate = min(software, pcie, link)
        bottleneck = {software: "software", pcie: "pcie", link: "link"}[rate]
        return BulkResult(
            goodput_gbps=rate * request_bytes * 8 / 1e9,
            requests_per_s=rate,
            bytes_delivered=0,
            elapsed_s=0.0,
            bottleneck=bottleneck,
        )
