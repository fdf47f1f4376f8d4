"""Attachment wiring and the traced-run determinism guarantee."""

import pytest

from repro.engine.testbed import Testbed
from repro.obs import (
    TraceBus,
    attach_load_engine,
    attach_testbed,
    fingerprint,
    sample_occupancy,
)
from repro.traffic import LoadEngine, get_scenario


def _push_traffic(testbed, payload=5000):
    a_flow, b_flow = testbed.establish()
    testbed.engine_a.send_data(a_flow, b"z" * payload)
    assert testbed.run(
        until=lambda: testbed.engine_b.readable(b_flow) >= payload,
        max_time_s=0.05,
    )
    return a_flow, b_flow


class TestAttach:
    def test_testbed_emits_on_every_engine_layer(self):
        testbed = Testbed()
        bus = TraceBus()
        attach_testbed(testbed, bus)
        _push_traffic(testbed)
        layers = {event.layer for event in bus.events}
        assert {"engine.fpc", "engine.sched", "engine.tx", "engine.rx",
                "host"} <= layers
        components = {event.component for event in bus.events}
        assert any(c.startswith("a/") for c in components)
        assert any(c.startswith("b/") for c in components)

    def test_attach_is_layer_aware(self):
        testbed = Testbed()
        bus = TraceBus(layers=["engine.mem"])
        attach_testbed(testbed, bus)
        # Components whose layers are masked off get literal None, so
        # the hot paths pay nothing, not even the emit() early return.
        assert testbed.engine_a.trace is None
        assert testbed.engine_a.fpcs[0].trace is None
        assert testbed.engine_a.scheduler.trace is None
        assert testbed.engine_a.memory_manager.trace is bus

    def test_detach_with_none(self):
        testbed = Testbed()
        bus = TraceBus()
        attach_testbed(testbed, bus)
        _push_traffic(testbed)
        count = len(bus)
        attach_testbed(testbed, None)
        testbed.engine_a.connect(testbed.engine_b.ip, 80)
        testbed.run(max_time_s=testbed.now_s + 1e-4)
        assert len(bus) == count

    def test_tracing_does_not_change_behaviour(self):
        def run(traced):
            testbed = Testbed()
            if traced:
                attach_testbed(testbed, TraceBus())
            a_flow, b_flow = _push_traffic(testbed)
            return testbed.now_s, testbed.engine_b.recv_data(b_flow, 5000)

        assert run(traced=False) == run(traced=True)

    def test_sample_occupancy_emits_counter_sections(self):
        testbed = Testbed()
        bus = TraceBus()
        attach_testbed(testbed, bus)
        _push_traffic(testbed)
        bus.clear()
        sample_occupancy(bus, testbed, testbed.now_s * 1e12)
        samples = [e for e in bus.events if e.kind == "sample"]
        assert {e.layer for e in samples} == {
            "engine.sched", "engine.mem", "engine.fpc", "host"
        }
        memmgr = next(e for e in samples if e.layer == "engine.mem")
        assert isinstance(memmgr.detail, dict)
        assert "resident" in memmgr.detail


def _traced_mixed(seed):
    engine = LoadEngine(get_scenario("mixed", seed=seed))
    bus = TraceBus()
    attach_load_engine(engine, bus)
    result = engine.run()
    return bus, result


@pytest.fixture(scope="module")
def mixed_runs():
    """The same seeded scenario run twice, independently."""
    return _traced_mixed(seed=7), _traced_mixed(seed=7)


class TestTracedScenarioDeterminism:
    def test_same_seed_same_fingerprint(self, mixed_runs):
        (one, result_one), (two, result_two) = mixed_runs
        assert len(one) > 0
        assert fingerprint(one.events) == fingerprint(two.events)
        assert result_one.completed == result_two.completed

    def test_trace_spans_at_least_four_layers(self, mixed_runs):
        (bus, _), _ = mixed_runs
        layers = {event.layer for event in bus.events}
        assert len(layers) >= 4, layers
        assert "traffic" in layers


def test_engine_layer_timestamps_never_run_backwards():
    """One clock per engine: whatever block emits it, an engine's next
    ``engine*`` event is never stamped before its last one.  (Until PR 23
    the scheduler stamped its own tick count, which idle jumps did not
    move: 82 of this run's 968 ``engine.sched`` events preceded an
    earlier event of the same engine, by up to 104 us.)"""
    load_engine = LoadEngine(get_scenario("mixed", seed=1234))
    bus = TraceBus(layers=["engine"])
    attach_load_engine(load_engine, bus)
    load_engine.run()
    latest = {}
    backwards = []
    for event in bus.events:
        assert event.layer.startswith("engine")
        engine = event.component.split("/")[0]
        if event.t_ps < latest.get(engine, 0):
            backwards.append(event)
        latest[engine] = max(event.t_ps, latest.get(engine, 0))
    assert sorted(latest) == ["a", "b"] and len(bus.events) > 2000
    assert backwards == []
