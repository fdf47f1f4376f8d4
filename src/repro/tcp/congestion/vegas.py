"""TCP Vegas (Brakmo & Peterson, 1995).

Vegas is delay-based: it compares expected to actual throughput using a
baseRTT estimate.  The integer divisions make its FPU pipeline 68 cycles
deep — the paper's stress case for versatility: despite the latency it
achieves the same maximum event rate as NewReno and CUBIC (§5.4).
"""

from __future__ import annotations

from typing import Optional

from ...sim.component import NEVER
from ..tcb import Tcb
from .base import CongestionControl, register

#: Vegas thresholds in segments: grow below ALPHA, shrink above BETA.
ALPHA_SEGMENTS = 2
BETA_SEGMENTS = 4


@register
class Vegas(CongestionControl):
    """Delay-based congestion avoidance with baseRTT tracking."""

    name = "vegas"
    fpu_latency_cycles = 68  # §5.4: dominated by integer divisions

    def on_init(self, tcb: Tcb, now_ps: int) -> None:
        super().on_init(tcb, now_ps)
        tcb.cc.update(
            {
                # RTTs in ps; NEVER until sampled.
                "base_rtt": NEVER,
                "min_rtt": NEVER,  # min sample this RTT epoch
                "epoch_end_seq": tcb.snd_nxt,  # next cwnd decision point
            }
        )

    def on_rtt_sample(self, tcb: Tcb, rtt_ps: int, now_ps: int) -> None:
        cc = tcb.cc
        cc["base_rtt"] = min(cc.get("base_rtt", NEVER), rtt_ps)
        cc["min_rtt"] = min(cc.get("min_rtt", NEVER), rtt_ps)

    def on_loss_event(self, tcb: Tcb, now_ps: int) -> None:
        # A loss invalidates the epoch's delay measurements.
        tcb.cc["min_rtt"] = NEVER
        tcb.cc["epoch_end_seq"] = tcb.snd_nxt

    def _congestion_avoidance(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int],
    ) -> None:
        cc = tcb.cc
        if rtt_ps is not None:
            self.on_rtt_sample(tcb, rtt_ps, now_ps)
        # Decide once per RTT: when the epoch's data has been acked.
        from ..seq import seq_ge

        if not seq_ge(tcb.snd_una, cc.get("epoch_end_seq", tcb.snd_una)):
            return
        base = cc.get("base_rtt", NEVER)
        observed = cc.get("min_rtt", NEVER)
        cc["epoch_end_seq"] = tcb.snd_nxt
        cc["min_rtt"] = NEVER
        if base == NEVER or observed == NEVER or observed <= 0:
            return
        # diff = (expected - actual) * baseRTT, in segments (the RTTs'
        # unit cancels; seconds, as the algorithm is written).
        base_s = base / 1e12
        expected = tcb.cwnd / base_s
        actual = tcb.cwnd / (observed / 1e12)
        diff_segments = (expected - actual) * base_s / tcb.mss
        if diff_segments < ALPHA_SEGMENTS:
            tcb.cwnd += tcb.mss
        elif diff_segments > BETA_SEGMENTS:
            tcb.cwnd = max(2 * tcb.mss, tcb.cwnd - tcb.mss)
        # else: the window is in the sweet spot; leave it.

    def _slow_start(self, tcb: Tcb, acked_bytes: int, now_ps: int) -> None:
        # Vegas slows exponential growth: every other RTT (modelled as
        # half-rate byte counting).
        tcb.cwnd += min(acked_bytes, tcb.mss)
