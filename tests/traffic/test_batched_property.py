"""Property test: the horizon loop is invisible to traces.

``LoadEngine.batched`` selects between the per-cycle reference loop and
the horizon loop (``Testbed.run`` with a ``quiet_cycle``: due-only
engine ticks, ``FtEngine.advance_cycles`` over the gaps, the pump
called on messages and on its own schedule).  The horizon loop may only
leave out what it can prove is a no-op, so for ANY scenario and seed the
obs trace fingerprint — every event at every layer, timestamped to the
picosecond — must be bit-identical between the two.  Hypothesis
composes small randomized scenarios (open/closed loop, persistent and
churn lifecycles, skewed sizes, optional wire drops so timers and
retransmissions run) and diffs the fingerprints, the same
oracle-not-examples idiom as ``tests/mem/test_fuzz_churn.py``.
"""

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


def _traced_fingerprint(scenario, batched):
    load_engine = LoadEngine(scenario)
    load_engine.batched = batched
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    try:
        load_engine.run()
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
        assert _traced_fingerprint(scenario, batched=True) == \
            _traced_fingerprint(scenario, batched=False)

    def test_batched_is_the_default(self):
        from repro.traffic import get_scenario

        assert LoadEngine(get_scenario("mixed", seed=1)).batched is True


def _cycle_gated_run(drop_every, send_every, sample_every, duration_s,
                     declare_horizon, max_steps):
    """A Fig-14-style pump: everything it does is gated on the cycle
    count (send, sample, stop), nothing on engine messages.  Run to the
    step bound first, then on to the end, as one history."""
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
    quiet_cycle = (
        (lambda: min(gate["send"], gate["sample"], end_cycle))
        if declare_horizon
        else None
    )
    marks = []
    for bound in (max_steps, 50_000_000):
        finished = testbed.run(
            until=pump, max_time_s=4 * duration_s, max_steps=bound,
            quiet_cycle=quiet_cycle,
        )
        marks.append((
            finished, testbed.cycle, len(samples),
            [(e.cycle, e.scheduler.cycle, e.fpcs[0].cycle, e.counters.as_dict())
             for e in (testbed.engine_a, testbed.engine_b)],
        ))
    return samples, marks


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
        assert _cycle_gated_run(*args, True, max_steps) == \
            _cycle_gated_run(*args, False, max_steps)
