"""The on-board memory channel: DDR4 or HBM behind the memory manager.

DDR4 provides 38 GB/s and HBM 460 GB/s (§4.7), which is what throttles
TCB swapping past 1024 flows (Fig 13).  The FPCs' BRAM tables and CAM and
the scheduler's location LUT are plain containers of the blocks that own
them (``repro.engine.fpc``, ``repro.engine.scheduler``).
"""

from __future__ import annotations

GIB = 1 << 30


class DRAMModel:
    """A bandwidth/latency model of an on-board memory channel.

    Transfers are serialized on the channel: a request issued at time
    ``now_ps`` completes at ``max(now, busy_until) + latency + n/bw``.
    This is the mechanism behind Fig 13's DRAM-throttled region — each
    echo request past 1024 flows costs a TCB swap-out plus swap-in.
    """

    def __init__(
        self,
        bandwidth_bytes_per_s: float,
        latency_ns: float = 100.0,
        per_request_overhead_ns: float = 0.0,
        name: str = "dram",
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_ps = latency_ns * 1000.0
        # Row-activation / channel-arbitration cost charged per access;
        # this is what makes small random TCB swaps much slower than the
        # peak sequential bandwidth (Fig 13's DRAM-throttled region).
        self.per_request_overhead_ps = per_request_overhead_ns * 1000.0
        self.name = name
        self.busy_until_ps = 0.0
        self.bytes_transferred = 0
        self.requests = 0

    @classmethod
    def ddr4(cls) -> "DRAMModel":
        """The paper's DDR4 option: 38 GB/s peak (§4.7), single channel."""
        return cls(38 * GIB, latency_ns=100.0, per_request_overhead_ns=25.0, name="ddr4")

    @classmethod
    def hbm(cls) -> "DRAMModel":
        """The paper's HBM option: 460 GB/s across many channels (§4.7).

        HBM2's 16+ pseudo-channels hide per-access overheads for the
        engine's one-TCB-per-cycle access pattern, so the modelled
        per-request overhead is near zero.
        """
        return cls(460 * GIB, latency_ns=120.0, per_request_overhead_ns=2.0, name="hbm")

    def transfer(self, nbytes: int, now_ps: float) -> float:
        """Account a transfer of ``nbytes``; returns its completion time.

        The channel is occupied for overhead + nbytes/bandwidth; the
        returned completion additionally includes the access latency.
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        start = max(now_ps, self.busy_until_ps)
        occupancy = (
            self.per_request_overhead_ps
            + nbytes / self.bandwidth_bytes_per_s * 1e12
        )
        self.busy_until_ps = start + occupancy
        self.bytes_transferred += nbytes
        self.requests += 1
        return start + occupancy + self.latency_ps
