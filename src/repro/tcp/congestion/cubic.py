"""CUBIC TCP (RFC 8312).

CUBIC needs cube and cube-root operations — exactly the "complex
algorithm with high processing latency" the paper uses to demonstrate
versatility: its FPU pipeline is 41 cycles deep yet runs at full event
rate (§4.5, §5.4).
"""

from __future__ import annotations

from typing import Optional

from ..tcb import Tcb
from .base import CongestionControl, register

#: RFC 8312 constants.
C = 0.4
BETA = 0.7


@register
class Cubic(CongestionControl):
    """CUBIC window growth with TCP-friendly region."""

    name = "cubic"
    fpu_latency_cycles = 41  # §5.4

    def on_init(self, tcb: Tcb, now_ps: int) -> None:
        super().on_init(tcb, now_ps)
        tcb.cc.update(
            {
                "w_max": 0.0,  # window (bytes) at last loss
                "k": 0.0,  # time to regrow to w_max
                "epoch_start": None,  # ps, None until first CA ack
                "w_est": 0.0,  # TCP-friendly estimate (bytes)
                "ack_bytes": 0,  # acked bytes in this epoch
            }
        )

    def on_loss_event(self, tcb: Tcb, now_ps: int) -> None:
        cc = tcb.cc
        cc["w_max"] = float(tcb.cwnd)
        cc["epoch_start"] = None

    def ssthresh_after_loss(self, tcb: Tcb, flight: int) -> int:
        # CUBIC's multiplicative decrease uses beta = 0.7 on cwnd.
        return max(int(tcb.cwnd * BETA), 2 * tcb.mss)

    def _congestion_avoidance(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int],
    ) -> None:
        cc = tcb.cc
        mss = float(tcb.mss)
        if rtt_ps is None:
            rtt_ps = tcb.srtt or 100 * 10**9  # 100 ms before any sample

        if cc.get("epoch_start") is None:
            cc["epoch_start"] = now_ps
            w_max = cc.get("w_max", 0.0)
            if w_max <= tcb.cwnd:
                # We are already past the previous saturation point.
                cc["w_max"] = float(tcb.cwnd)
                cc["k"] = 0.0
            else:
                # K = cubic_root(W_max * (1 - beta) / C), in MSS units.
                cc["k"] = ((w_max / mss) * (1 - BETA) / C) ** (1 / 3)
            cc["w_est"] = float(tcb.cwnd)
            cc["ack_bytes"] = 0

        # Seconds since the epoch began, targeting one RTT ahead.
        t = (now_ps - cc["epoch_start"] + rtt_ps) / 1e12
        w_max_seg = cc["w_max"] / mss
        w_cubic_seg = C * (t - cc["k"]) ** 3 + w_max_seg
        w_cubic = w_cubic_seg * mss

        # TCP-friendly region (RFC 8312 §4.2): emulate Reno's growth.
        cc["ack_bytes"] += acked_bytes
        w_est = cc["w_est"]
        alpha = 3 * (1 - BETA) / (1 + BETA)
        while cc["ack_bytes"] >= w_est and w_est > 0:
            cc["ack_bytes"] -= int(w_est)
            w_est += alpha * mss
        cc["w_est"] = w_est

        if w_cubic < w_est:
            target = w_est
        else:
            # Concave/convex region: grow toward W_cubic over one RTT.
            target = tcb.cwnd + max(0.0, (w_cubic - tcb.cwnd)) / max(
                1.0, tcb.cwnd / mss
            )
        tcb.cwnd = max(tcb.cwnd, min(int(target), tcb.cwnd + 2 * tcb.mss))
