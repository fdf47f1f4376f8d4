"""iPerf-style bulk data transfer (§5.1, Fig 8a).

The paper's first experiment: each CPU core generates send requests for a
single flow, and goodput is measured at the application (payload only —
the 78 B per-packet overhead is excluded, which is why 128 B requests
top out at 62.1 Gbps on a 100 Gbps link).

Two faces:

* :func:`run_functional_bulk` — drives real bytes through two engines on
  the testbed and reports measured goodput (integration-level fidelity);
* :class:`BulkTransferModel` — the calibrated end-to-end rate model used
  to regenerate Fig 8a/8b/Fig 9 (min of software, PCIe, link).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.testbed import Testbed, message_driven
from ..host.calibration import F4T_CYCLES_PER_SEND_BULK
from ..host.cpu import CpuModel
from ..host.pcie import PcieModel
from ..net.link import LINK_100G
from ..tcp.tcb import DEFAULT_MSS


@dataclass
class BulkResult:
    goodput_gbps: float
    requests_per_s: float
    bytes_delivered: int
    elapsed_s: float
    bottleneck: str = "n/a"


def run_functional_bulk(
    total_bytes: int = 1_000_000,
    request_bytes: int = 1460,
) -> BulkResult:
    """Move ``total_bytes`` through the real engines within one simulated
    second; measure goodput."""
    tb = Testbed()
    a_flow, b_flow = tb.establish()
    start_s = tb.now_s
    sent = 0
    received = 0
    payload = bytes(request_bytes)

    def pump() -> bool:
        nonlocal sent, received
        while sent < total_bytes:
            chunk = payload[: min(request_bytes, total_bytes - sent)]
            accepted = tb.engine_a.send_data(a_flow, chunk)
            sent += accepted
            if accepted < len(chunk):
                break  # buffer full; let the engines drain
        readable = tb.engine_b.readable(b_flow)
        if readable:
            received += len(tb.engine_b.recv_data(b_flow, readable))
        return received >= total_bytes

    # The pump sends until the buffer refuses and reads what is there:
    # after a call only an 'acked' or 'data' message can move it.
    finished = tb.run(
        until=pump, max_time_s=start_s + 1.0, next_call_ps=message_driven
    )
    elapsed = max(tb.now_s - start_s, 1e-12)
    if not finished:
        raise TimeoutError(f"bulk transfer stalled at {received}/{total_bytes} B")
    return BulkResult(
        goodput_gbps=received * 8 / elapsed / 1e9,
        requests_per_s=(received / request_bytes) / elapsed,
        bytes_delivered=received,
        elapsed_s=elapsed,
        bottleneck="functional",
    )


@dataclass
class BulkTransferModel:
    """End-to-end F4T bulk rate: min(software, PCIe, link).

    There is no engine term: in bulk mode, events of the same flow
    coalesce in the scheduler, so the engine processes the merged
    stream as one large request and never limits bulk throughput
    (§4.4.1, §5.1's observation that accumulated events act as one
    large request).  The round-robin pattern (Fig 8b) is the same model
    on the costlier RR software path: ``F4T_CYCLES_PER_SEND_RR``.
    """

    cores: int = 1
    #: Host CPU cycles per 128 B send request on the F4T library path.
    cycles_per_send: float = F4T_CYCLES_PER_SEND_BULK

    def request_rate(self, request_bytes: int) -> BulkResult:
        """F4T's achievable request rate at this request size.

        Small requests accumulate into MSS-sized packets (§4.2.2 and the
        §5.1 observation that backpressure grows packet sizes), so the
        link constrains *bytes* at MSS packet granularity rather than
        packets at request granularity — this is how 64 B requests reach
        ~90 Gbps goodput in Fig 8.
        """
        cpu = CpuModel(cores=self.cores)
        software = cpu.rate_for(
            self.cycles_per_send + 0.05 * max(0, request_bytes - 128)
        )
        pcie = PcieModel().max_requests_per_s(request_bytes)
        link_goodput = LINK_100G.max_goodput_gbps(DEFAULT_MSS) * 1e9 / 8  # bytes/s
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
