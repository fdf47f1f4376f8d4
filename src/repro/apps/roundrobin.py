"""Round-robin request workload (§5.1, Fig 8b).

Each CPU core generates send requests in a round-robin manner over its
own distinct set of 16 flows, so FtEngine receives events of *different*
flows back to back — the multi-flow stress case that parallel FPCs
target (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.testbed import Testbed
from ..host.calibration import F4T_CYCLES_PER_SEND_RR
from ..host.cpu import CpuModel
from ..host.pcie import PcieModel
from ..net.link import LINK_100G, Link
from ..traffic import Fixed, Scenario, TrafficClass, run_scenario
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


def run_functional_round_robin(
    flows: int = FLOWS_PER_CORE,
    requests_per_flow: int = 64,
    request_bytes: int = 128,
    testbed: Optional[Testbed] = None,
    max_time_s: float = 1.0,
) -> BulkResult:
    """Drive real round-robin requests over ``flows`` connections.

    A thin preset over :mod:`repro.traffic`: each flow is a persistent
    closed-loop connection pipelining one-way requests, so FtEngine sees
    events of *different* flows back to back.  Delivery to the server
    side is completion; ``bytes_delivered`` counts request bytes only.
    """
    result = run_scenario(
        round_robin_scenario(flows, requests_per_flow, request_bytes),
        testbed=testbed,
        setup_time_s=max_time_s,
        run_time_s=max_time_s,
        raise_on_incomplete=True,
    )
    metrics = result.classes["rr"]
    elapsed = result.elapsed_s
    return BulkResult(
        goodput_gbps=metrics.bytes_delivered * 8 / elapsed / 1e9,
        requests_per_s=metrics.bytes_delivered / request_bytes / elapsed,
        bytes_delivered=metrics.bytes_delivered,
        elapsed_s=elapsed,
        bottleneck="functional",
    )


@dataclass
class RoundRobinModel:
    """Fig 8b's F4T curve: like bulk but with the costlier RR software path.

    Under link backpressure the increased packet-generation period lets
    events accumulate, growing packet sizes (§5.1) — so the link term is
    byte-granular here too, and F4T converges near 90 Gbps goodput.
    """

    cores: int = 1
    link: Link = LINK_100G
    pcie: PcieModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pcie is None:
            self.pcie = PcieModel()

    def request_rate(self, request_bytes: int, mss: int = 1460) -> BulkResult:
        cpu = CpuModel(cores=self.cores)
        software = cpu.rate_for(
            F4T_CYCLES_PER_SEND_RR + 0.05 * max(0, request_bytes - 128)
        )
        pcie = self.pcie.max_requests_per_s(request_bytes)
        link_goodput = self.link.max_goodput_gbps(mss) * 1e9 / 8
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
