"""Congestion-window trace capture for Fig 14.

Runs a single-flow bulk transfer through the *functional* two-engine
testbed with periodic packet drops, sampling the sender TCB's cwnd over
simulated time, and provides the comparison metrics against the
independent reference simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..engine.ftengine import ENGINE_PERIOD_PS, FtEngineConfig
from ..engine.testbed import Testbed
from ..net.link import Link
from ..net.wire import Wire
from ..refsim.netsim import CwndTrace, ReferenceTcpSimulation
from ..sim.component import seconds_to_ps
from ..tcp.segment import TcpSegment

#: The Fig 14 setup: every 1500th data frame dropped on a 100 Gbps link
#: with 5 us one-way delay, the sender's cwnd sampled every 2000 cycles.
DROP_EVERY = 1500
DELAY_US = 5.0
LINK_GBPS = 100.0
SAMPLE_EVERY_CYCLES = 2000
#: The comparison grid: 60 samples after the first 0.3 ms of slow start;
#: a fall of a quarter or more between samples is one decrease.
SAMPLES = 60
SKIP_S = 3e-4
DECREASE_THRESHOLD = 0.25


class PeriodicDataDropper:
    """Drop every Nth data-bearing frame (the Fig 14 'occasional drops')."""

    def __init__(self, every: int) -> None:
        if every <= 0:
            raise ValueError("drop period must be positive")
        self.every = every
        self.count = 0
        self.dropped = 0

    def __call__(self, frame, index: int) -> bool:
        payload = frame.payload
        if isinstance(payload, TcpSegment) and payload.payload:
            self.count += 1
            if self.count % self.every == 0:
                self.dropped += 1
                return True
        return False


def capture_engine_cwnd_trace(
    algorithm: str = "newreno",
    duration_s: float = 3e-3,
) -> CwndTrace:
    """Functional F4T bulk transfer with drops; returns the cwnd trace."""
    link = Link(propagation_delay_us=DELAY_US)
    wire = Wire(link=link, drop_a_to_b=PeriodicDataDropper(DROP_EVERY))
    tb = Testbed(
        config_a=FtEngineConfig(algorithm=algorithm),
        config_b=FtEngineConfig(),
        wire=wire,
    )
    a_flow, b_flow = tb.establish()
    trace = CwndTrace()
    payload = bytes(32768)
    state = {"next_send": 0, "next_sample": 0}
    end_ps = seconds_to_ps(duration_s)

    def pump() -> bool:
        if tb.cycle >= state["next_send"]:
            tb.engine_a.send_data(a_flow, payload)
            readable = tb.engine_b.readable(b_flow)
            if readable:
                tb.engine_b.recv_data(b_flow, readable)
            state["next_send"] = tb.cycle + 32
        if tb.cycle >= state["next_sample"]:
            tcb = tb.engine_a.tcb_of(a_flow)
            if tcb is not None:
                trace.record(tb.now_s, tcb.cwnd)
            state["next_sample"] = tb.cycle + SAMPLE_EVERY_CYCLES
        return tb.time_ps >= end_ps

    # Everything the pump does is time-gated, so it declares when: the
    # next send, the next sample, the end of the duration.
    tb.run(
        until=pump,
        max_time_s=duration_s * 4,
        next_call_ps=lambda: min(
            min(state["next_send"], state["next_sample"]) * ENGINE_PERIOD_PS,
            end_ps,
        ),
    )
    return trace


def reference_cwnd_trace(
    algorithm: str = "newreno",
    duration_s: float = 3e-3,
) -> CwndTrace:
    """The matched reference-simulator run (NS3 stand-in)."""
    sim = ReferenceTcpSimulation(
        algorithm=algorithm,
        link_gbps=LINK_GBPS,
        one_way_delay_ms=DELAY_US / 1000.0,
        duration_s=duration_s,
        drop_fn=lambda index: index > 0 and index % DROP_EVERY == 0,
        rto_s=0.05,
    )
    return sim.run()


@dataclass
class TraceComparison:
    """Similarity metrics between two cwnd traces.

    Sawtooth traces driven by count-based drops drift out of phase when
    the two systems' instantaneous throughputs differ slightly, which
    makes pointwise correlation fragile; the robust fidelity signals are
    the *distributional* ones — how many multiplicative decreases
    happened and what the average window was.
    """

    correlation: float
    median_relative_error: float
    mean_cwnd_ratio: float  # engine mean / reference mean
    engine_decreases: int
    reference_decreases: int


def count_multiplicative_decreases(values: List[int]) -> int:
    """Count drops of >= :data:`DECREASE_THRESHOLD` between adjacent samples.

    Callers pass a series resampled on a common grid so both traces are
    judged at the same granularity (a fine-grained trace would otherwise
    double-count a single loss event's enter-recovery and exit-deflation
    dips).
    """
    count = 0
    previous = None
    for cwnd in values:
        if previous is not None and previous > 0:
            if (previous - cwnd) / previous >= DECREASE_THRESHOLD:
                count += 1
        previous = cwnd
    return count


def compare_traces(engine: CwndTrace, reference: CwndTrace) -> TraceComparison:
    """Resample both traces on a common grid and compare.

    :data:`SKIP_S` discards the initial slow-start transient, whose
    timing depends on handshake details rather than the congestion
    algorithm.
    """
    end = min(engine.times_s[-1], reference.times_s[-1])
    grid = [SKIP_S + (end - SKIP_S) * i / (SAMPLES - 1) for i in range(SAMPLES)]
    a = engine.resampled(grid)
    b = reference.resampled(grid)

    mean_a = sum(a) / len(a)
    mean_b = sum(b) / len(b)
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    var_a = sum((x - mean_a) ** 2 for x in a)
    var_b = sum((y - mean_b) ** 2 for y in b)
    correlation = (
        cov / math.sqrt(var_a * var_b) if var_a > 0 and var_b > 0 else 1.0
    )
    errors = sorted(
        abs(x - y) / max(x, y) for x, y in zip(a, b) if max(x, y) > 0
    )
    median_error = errors[len(errors) // 2] if errors else 0.0
    return TraceComparison(
        correlation=correlation,
        median_relative_error=median_error,
        mean_cwnd_ratio=mean_a / mean_b if mean_b > 0 else float("inf"),
        engine_decreases=count_multiplicative_decreases(a),
        reference_decreases=count_multiplicative_decreases(b),
    )
