"""Congestion-window trace capture for Fig 14.

Runs a single-flow bulk transfer through the *functional* two-engine
testbed with periodic packet drops, sampling the sender TCB's cwnd over
simulated time, and provides the comparison metrics against the
independent reference simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..engine.ftengine import FtEngineConfig, first_cycle_at
from ..engine.testbed import Testbed
from ..net.link import Link
from ..net.wire import Wire
from ..refsim.netsim import CwndTrace, ReferenceTcpSimulation
from ..tcp.segment import TcpSegment


class PeriodicDataDropper:
    """Drop every Nth data-bearing frame (the Fig 14 'occasional drops')."""

    def __init__(self, every: int, start: int = 0) -> None:
        if every <= 0:
            raise ValueError("drop period must be positive")
        self.every = every
        self.start = start
        self.count = 0
        self.dropped = 0

    def __call__(self, frame, index: int) -> bool:
        payload = frame.payload
        if isinstance(payload, TcpSegment) and payload.payload:
            self.count += 1
            if self.count >= self.start and self.count % self.every == 0:
                self.dropped += 1
                return True
        return False


def capture_engine_cwnd_trace(
    algorithm: str = "newreno",
    duration_s: float = 3e-3,
    drop_every: int = 1500,
    link_gbps: float = 100.0,
    delay_us: float = 5.0,
    sample_every_cycles: int = 2000,
) -> CwndTrace:
    """Functional F4T bulk transfer with drops; returns the cwnd trace."""
    link = Link(bandwidth_gbps=link_gbps, propagation_delay_us=delay_us)
    wire = Wire(link=link, drop_a_to_b=PeriodicDataDropper(drop_every))
    tb = Testbed(
        config_a=FtEngineConfig(algorithm=algorithm),
        config_b=FtEngineConfig(),
        wire=wire,
    )
    a_flow, b_flow = tb.establish()
    trace = CwndTrace()
    payload = bytes(32768)
    state = {"next_send": 0, "next_sample": 0}

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
            state["next_sample"] = tb.cycle + sample_every_cycles
        return tb.now_s >= duration_s

    # Everything the pump does is cycle-gated, so it declares when:
    # the next send, the next sample, the cycle the duration test trips.
    end_cycle = first_cycle_at(duration_s)
    tb.run(
        until=pump,
        max_time_s=duration_s * 4,
        quiet_cycle=lambda: min(
            state["next_send"], state["next_sample"], end_cycle
        ),
    )
    return trace


def reference_cwnd_trace(
    algorithm: str = "newreno",
    duration_s: float = 3e-3,
    drop_every: int = 1500,
    link_gbps: float = 100.0,
    delay_us: float = 5.0,
) -> CwndTrace:
    """The matched reference-simulator run (NS3 stand-in)."""
    sim = ReferenceTcpSimulation(
        algorithm=algorithm,
        link_gbps=link_gbps,
        one_way_delay_ms=delay_us / 1000.0,
        duration_s=duration_s,
        drop_fn=lambda index: index > 0 and index % drop_every == 0,
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

    @property
    def decrease_counts_match(self) -> bool:
        """Both traces show the same number of multiplicative decreases
        (within one event — boundary sampling can clip one)."""
        return abs(self.engine_decreases - self.reference_decreases) <= 1


def count_multiplicative_decreases(values: List[int], threshold: float = 0.25) -> int:
    """Count drops of >= ``threshold`` fraction between adjacent samples.

    Callers pass a series resampled on a common grid so both traces are
    judged at the same granularity (a fine-grained trace would otherwise
    double-count a single loss event's enter-recovery and exit-deflation
    dips).
    """
    count = 0
    previous = None
    for cwnd in values:
        if previous is not None and previous > 0:
            if (previous - cwnd) / previous >= threshold:
                count += 1
        previous = cwnd
    return count


def compare_traces(
    engine: CwndTrace, reference: CwndTrace, samples: int = 60, skip_s: float = 3e-4
) -> TraceComparison:
    """Resample both traces on a common grid and compare.

    ``skip_s`` discards the initial slow-start transient, whose timing
    depends on handshake details rather than the congestion algorithm.
    """
    end = min(engine.times_s[-1], reference.times_s[-1])
    grid = [skip_s + (end - skip_s) * i / (samples - 1) for i in range(samples)]
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
