"""BBR-lite: a model-based algorithm, the versatility stress case.

The paper argues F4T removes the "simple window or rate arithmetics"
straitjacket (§2.2 citing [35]) and can host algorithms with long FPU
latencies (§4.5).  BBR-class algorithms are the canonical example of
what host stacks avoid: per-ACK delivery-rate estimation with divisions
and max/min filters.  This simplified BBR (bandwidth-delay-product
pacing via cwnd, startup/drain/probe gains, loss-tolerant) is included
as the reproduction's "future work" extension: it is *not* in the paper;
its FPU latency is an estimate in the Vegas class (division-dominated).
"""

from __future__ import annotations

from typing import Optional

from ...sim.component import NEVER
from ..tcb import Tcb
from .base import CongestionControl, register

#: Startup gain 2/ln2 (grow like slow start), then cruise at 1.0 with a
#: periodic probe, exactly BBR v1's shape (simplified).
STARTUP_GAIN = 2.885
CRUISE_GAIN = 1.0
PROBE_GAIN = 1.25
#: Bottleneck-bandwidth max-filter window, in delivery samples.
BW_FILTER_SAMPLES = 10
#: Probe one round in every eight (BBR's gain cycle, collapsed).
PROBE_PERIOD = 8


@register
class BbrLite(CongestionControl):
    """cwnd = gain x estimated bandwidth-delay product."""

    name = "bbr-lite"
    #: Estimated synthesis depth: two divisions (rate sample, BDP) plus
    #: filter updates — Vegas-class latency (§5.4 reports 68 for Vegas).
    fpu_latency_cycles = 57

    def on_init(self, tcb: Tcb, now_ps: int) -> None:
        super().on_init(tcb, now_ps)
        tcb.cc.update(
            {
                "bw_samples": [],  # recent delivery-rate samples (B/s)
                "min_rtt": NEVER,  # ps; NEVER until sampled
                "in_startup": True,
                "rounds": 0,
                "full_bw": 0.0,  # plateau detector state
                "full_bw_rounds": 0,
            }
        )

    # BBR is rate-based: it reacts to the *model*, not to loss events,
    # so the Reno recovery framework is mostly neutralized.
    def ssthresh_after_loss(self, tcb: Tcb, flight: int) -> int:
        return max(int(tcb.cwnd * 0.85), 2 * tcb.mss)

    def on_rtt_sample(self, tcb: Tcb, rtt_ps: int, now_ps: int) -> None:
        cc = tcb.cc
        if "min_rtt" in cc:
            cc["min_rtt"] = min(cc["min_rtt"], rtt_ps)

    def _record_bandwidth(self, tcb: Tcb, acked_bytes: int, rtt_ps: int) -> float:
        cc = tcb.cc
        samples = cc.setdefault("bw_samples", [])
        if rtt_ps > 0:
            samples.append(acked_bytes / (rtt_ps / 1e12))
            del samples[:-BW_FILTER_SAMPLES]
        return max(samples) if samples else 0.0

    def _gain(self, tcb: Tcb) -> float:
        cc = tcb.cc
        if cc.get("in_startup", True):
            return STARTUP_GAIN
        return PROBE_GAIN if cc["rounds"] % PROBE_PERIOD == 0 else CRUISE_GAIN

    def _update_cwnd(self, tcb: Tcb, acked_bytes: int, rtt_ps: Optional[int]) -> None:
        cc = tcb.cc
        rtt = rtt_ps if rtt_ps is not None else (tcb.srtt or 0)
        if rtt <= 0:
            tcb.cwnd += min(acked_bytes, 2 * tcb.mss)  # no model yet
            return
        self.on_rtt_sample(tcb, rtt, 0)
        btl_bw = self._record_bandwidth(tcb, acked_bytes, rtt)
        cc["rounds"] += 1
        # Startup exit: bandwidth plateaued for three rounds (BBR v1).
        if cc.get("in_startup", True):
            if btl_bw > cc["full_bw"] * 1.25:
                cc["full_bw"] = btl_bw
                cc["full_bw_rounds"] = 0
            else:
                cc["full_bw_rounds"] += 1
                if cc["full_bw_rounds"] >= 3:
                    cc["in_startup"] = False
        bdp = btl_bw * (cc["min_rtt"] / 1e12)
        if bdp > 0:
            target = int(self._gain(tcb) * bdp)
            tcb.cwnd = max(4 * tcb.mss, target)

    def on_ack(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int] = None,
    ) -> bool:
        """The model drives cwnd directly — no ssthresh-gated slow start
        and no window deflation on recovery exit (the bandwidth estimate
        already absorbed the loss)."""
        if acked_bytes <= 0:
            return False
        tcb.dupacks = 0
        if tcb.in_recovery:
            from ..seq import seq_ge

            if seq_ge(tcb.snd_una, tcb.recover):
                tcb.in_recovery = False
                return False
            return self._on_partial_ack(tcb, acked_bytes, now_ps)
        self._update_cwnd(tcb, acked_bytes, rtt_ps)
        return False

    def _congestion_avoidance(
        self,
        tcb: Tcb,
        acked_bytes: int,
        now_ps: int,
        rtt_ps: Optional[int],
    ) -> None:
        self._update_cwnd(tcb, acked_bytes, rtt_ps)
