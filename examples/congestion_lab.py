#!/usr/bin/env python3
"""Congestion-control lab: F4T's programmability in action (§4.5, §5.4).

Three things the paper claims, demonstrated:

1. Users program the TCP stack by writing only FPU logic — here a brand
   new congestion algorithm is defined in ~15 lines and runs unchanged
   on the engine.
2. Algorithm latency does not cost throughput: NewReno (14-cycle FPU),
   CUBIC (41) and Vegas (68) all process 125 M events/s (Fig 15).
3. The engine's congestion behaviour matches an independent reference
   simulator (Fig 14): ASCII cwnd traces below.

Run:  python examples/congestion_lab.py
"""

from repro.analysis.cwnd import (
    capture_engine_cwnd_trace,
    compare_traces,
    reference_cwnd_trace,
)
from repro.analysis.microbench import measure_fpc_event_rate
from repro.tcp.congestion import CongestionControl, register
from repro.tcp.tcb import Tcb


# ---------------------------------------------------------------------------
# 1. A user-defined algorithm: AIMD with a configurable increase step.
#    In hardware this would be the C++ placeholder the HLS flow compiles
#    into the FPU (§4.5); here it is the same idea in Python.
# ---------------------------------------------------------------------------
@register
class EagerAimd(CongestionControl):
    """Additive increase of 2 MSS per RTT, multiplicative decrease 0.5."""

    name = "eager-aimd"
    fpu_latency_cycles = 9  # simple arithmetic: a shallow pipeline

    def _congestion_avoidance(self, tcb: Tcb, acked, now_ps, rtt_ps) -> None:
        grow = tcb.cc.get("accum", 0) + 2 * acked
        while grow >= tcb.cwnd:
            grow -= tcb.cwnd
            tcb.cwnd += tcb.mss
        tcb.cc["accum"] = grow


def demo_programmability() -> None:
    print("== 1. Programming the FPU ==")
    from repro.tcp.congestion import get_algorithm

    algorithm = get_algorithm("eager-aimd")
    print(f"registered {algorithm.name!r} "
          f"(FPU pipeline depth {algorithm.fpu_latency_cycles} cycles)")
    rate = measure_fpc_event_rate(fpu_latency=algorithm.fpu_latency_cycles, cycles=8000)
    print(f"FPC event rate with it: {rate / 1e6:.0f} M events/s")
    print()


def demo_versatility() -> None:
    print("== 2. Versatility: latency-independent throughput (Fig 15) ==")
    for name, latency in (("newreno", 14), ("cubic", 41), ("vegas", 68)):
        rate = measure_fpc_event_rate(fpu_latency=latency, cycles=8000)
        print(f"  {name:8s} ({latency:2d}-cycle FPU): {rate / 1e6:6.1f} M events/s")
    print("  -> identical, as the paper reports for all three (§5.4)")
    print()


def ascii_plot(trace, width=72, height=10, mss=1460):
    """Tiny ASCII renderer for a cwnd trace."""
    end = trace.times_s[-1]
    grid = [end * i / (width - 1) for i in range(width)]
    values = [trace.sample_at(t) / mss for t in grid]
    top = max(values) or 1
    rows = []
    for level in range(height, 0, -1):
        threshold = top * (level - 0.5) / height
        rows.append("".join("#" if v >= threshold else " " for v in values))
    rows.append("-" * width)
    return "\n".join(rows) + f"\n0 .. {end * 1e3:.1f} ms   (peak {top:.0f} MSS)"


def demo_trace_match() -> None:
    print("== 3. cwnd traces: F4T engine vs independent reference (Fig 14) ==")
    for algorithm in ("newreno", "cubic"):
        engine = capture_engine_cwnd_trace(algorithm=algorithm, duration_s=1.5e-3)
        reference = reference_cwnd_trace(algorithm=algorithm, duration_s=1.5e-3)
        comparison = compare_traces(engine, reference)
        print(f"\n--- {algorithm}: F4T engine (functional simulation) ---")
        print(ascii_plot(engine))
        print(f"--- {algorithm}: reference simulator (NS3 stand-in) ---")
        print(ascii_plot(reference))
        print(f"mean-cwnd ratio {comparison.mean_cwnd_ratio:.2f}, "
              f"{comparison.engine_decreases} vs {comparison.reference_decreases} "
              f"loss reactions")


if __name__ == "__main__":
    demo_programmability()
    demo_versatility()
    demo_trace_match()
