"""Property test: the horizon loop is invisible to traces.

``Testbed.run`` is the horizon loop (due-only engine ticks,
``FtEngine.advance_cycles`` over the gaps, the pump called on messages
and on its own schedule); ``tests/engine/_percycle_oracle.py`` is the
loop it replaced, which visits, pumps and ticks every cycle.  The
horizon loop may only leave out what it can prove is a no-op, so for
ANY scenario and seed the obs trace fingerprint — every event at every
layer, timestamped to the picosecond — must be bit-identical between
the two.  Hypothesis
composes small randomized scenarios (open/closed loop, persistent and
churn lifecycles, skewed sizes, optional wire drops so timers and
retransmissions run) and diffs the fingerprints, the same
oracle-not-examples idiom as ``tests/mem/test_fuzz_churn.py``.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.ftengine import first_cycle_at
from repro.engine.testbed import Testbed
from repro.net.wire import LossPattern, Wire
from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import (
    Deterministic,
    Fixed,
    Impairments,
    Poisson,
    Scenario,
    TrafficClass,
    Zipf,
)
from repro.traffic.engine import LoadEngine

from ..engine._percycle_oracle import run_per_cycle


def _budget(quick):
    """``quick`` examples in tier-1; the ``deep`` profile's when selected."""
    deep = settings.get_profile("deep").max_examples
    return deep if settings.default.max_examples == deep else quick


def _request_sizes(draw):
    if draw(st.booleans()):
        return Fixed(draw(st.integers(min_value=1, max_value=4096)))
    return Zipf(minimum=64, maximum=8192, buckets=6)


@st.composite
def scenarios(draw):
    classes = []
    duration_s = draw(st.sampled_from([30e-6, 60e-6, 100e-6]))
    if draw(st.booleans()):
        rate = draw(st.sampled_from([5e4, 1e5, 2e5]))
        arrival = (
            Poisson(rate) if draw(st.booleans()) else Deterministic(rate)
        )
        classes.append(
            TrafficClass(
                name="open",
                request=_request_sizes(draw),
                response=Fixed(draw(st.integers(min_value=0, max_value=2048))),
                arrival=arrival,
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    if draw(st.booleans()):
        classes.append(
            TrafficClass(
                name="rpc",
                request=Fixed(draw(st.integers(min_value=1, max_value=1024))),
                response=Fixed(draw(st.integers(min_value=1, max_value=1024))),
                lifecycle="per_request",
                transactions=draw(st.integers(min_value=1, max_value=3)),
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    if not classes:
        classes.append(
            TrafficClass(
                name="closed",
                request=Fixed(draw(st.integers(min_value=1, max_value=2048))),
                response=Fixed(64),
                rounds=draw(st.integers(min_value=1, max_value=3)),
                connections=draw(st.integers(min_value=1, max_value=2)),
            )
        )
    impairments = None
    if draw(st.booleans()):
        # Drops force RTO timers, retransmissions and long idle waits —
        # exactly the windows the batched loop wants to skip across.
        impairments = Impairments(drop_probability=0.02)
    return Scenario(
        name="prop",
        classes=classes,
        duration_s=duration_s,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        impairments=impairments,
    )


def _traced_fingerprint(scenario, per_cycle):
    load_engine = LoadEngine(scenario)
    if per_cycle:
        testbed = load_engine.testbed
        testbed.run = lambda **kwargs: run_per_cycle(testbed, **kwargs)
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    try:
        # Bounds the oracle can walk cycle by cycle (the defaults leave
        # a stalled run 0.5 s, 125 M cycles, to give up in).
        load_engine.run(
            setup_time_s=2e-4, run_time_s=scenario.duration_s * 3 + 4e-4
        )
        outcome = "completed"
    except TimeoutError:
        # Some drawn scenarios genuinely stall (e.g. a dropped
        # handshake packet with no connect retry).  That is scenario
        # behaviour, not loop behaviour: both paths must stall the same
        # way with the same partial trace.
        outcome = "timeout"
    return outcome, fingerprint(bus.events)


class TestBatchedLegacyEquivalence:
    @settings(
        max_examples=_budget(12),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios())
    def test_fingerprints_identical(self, scenario):
        # A 50 us floor under the RTO (10 ms as shipped) lets a dropped
        # segment's timer fire, back off and fire again inside those
        # bounds — on both sides alike.
        with mock.patch("repro.tcp.timers.MIN_RTO_S", 50e-6):
            assert _traced_fingerprint(scenario, per_cycle=False) == \
                _traced_fingerprint(scenario, per_cycle=True)


def _cycle_gated_run(drop_every, send_every, sample_every, duration_s,
                     max_steps):
    """A Fig-14-style pump: everything it does is gated on the cycle
    count (send, sample, stop), nothing on engine messages.  With
    ``max_steps``, the horizon loop declaring the pump's schedule, run
    to the step bound first and then on to the end, as one history;
    without, the per-cycle oracle."""
    testbed = Testbed(wire=Wire(drop_a_to_b=LossPattern.every_nth(drop_every, 5)))
    a_flow, b_flow = testbed.establish()
    samples = []
    gate = {"send": 0, "sample": 0}
    payload = bytes(8192)

    def pump():
        if testbed.cycle >= gate["send"]:
            testbed.engine_a.send_data(a_flow, payload)
            readable = testbed.engine_b.readable(b_flow)
            if readable:
                testbed.engine_b.recv_data(b_flow, readable)
            gate["send"] = testbed.cycle + send_every
        if testbed.cycle >= gate["sample"]:
            tcb = testbed.engine_a.tcb_of(a_flow)
            samples.append((testbed.cycle, tcb.cwnd, tcb.snd_una))
            gate["sample"] = testbed.cycle + sample_every
        return testbed.now_s >= duration_s

    end_cycle = first_cycle_at(duration_s)
    if max_steps is None:
        finished = run_per_cycle(testbed, until=pump, max_time_s=4 * duration_s)
    else:
        for bound in (max_steps, 50_000_000):
            finished = testbed.run(
                until=pump, max_time_s=4 * duration_s, max_steps=bound,
                quiet_cycle=lambda: min(gate["send"], gate["sample"], end_cycle),
            )
    return samples, finished, testbed.cycle, [
        (e.cycle, e.scheduler.cycle, e.fpcs[0].cycle, e.stats_report())
        for e in (testbed.engine_a, testbed.engine_b)
    ]


class TestCycleGatedPump:
    """A pump that declares its own schedule through ``quiet_cycle`` is
    skipped between its gates and nowhere else — including when the
    step bound cuts a skip short."""

    @settings(
        max_examples=_budget(10),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        drop_every=st.integers(min_value=7, max_value=60),
        send_every=st.sampled_from([8, 32, 100]),
        sample_every=st.sampled_from([50, 333, 2000]),
        duration_s=st.sampled_from([40e-6, 90e-6]),
        max_steps=st.integers(min_value=1, max_value=6000),
    )
    def test_declared_horizon_changes_nothing(
        self, drop_every, send_every, sample_every, duration_s, max_steps
    ):
        args = (drop_every, send_every, sample_every, duration_s)
        assert _cycle_gated_run(*args, max_steps) == _cycle_gated_run(*args, None)
