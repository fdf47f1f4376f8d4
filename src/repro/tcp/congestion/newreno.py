"""TCP NewReno (RFC 6582 / RFC 5681).

The paper implements NewReno on the FPU in 14 pipeline cycles (§5.4) and
validates its congestion-window trace against NS3 (Fig 14).
"""

from __future__ import annotations

from typing import Optional

from ..tcb import Tcb
from .base import CongestionControl, register


@register
class NewReno(CongestionControl):
    """AIMD with NewReno fast recovery."""

    name = "newreno"
    fpu_latency_cycles = 14  # §5.4

    def _congestion_avoidance(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int],
    ) -> None:
        # Byte-counting AIMD: cwnd grows one MSS per cwnd of data acked.
        grow = tcb.cc.get("ca_accum", 0) + acked_bytes
        while grow >= tcb.cwnd:
            grow -= tcb.cwnd
            tcb.cwnd += tcb.mss
        tcb.cc["ca_accum"] = grow
