"""The trace bus: filtering, sampling, and the determinism fingerprint."""

import pytest

from repro.obs.trace import (
    ALL_LAYERS,
    ENGINE_LAYERS,
    TraceBus,
    TraceEvent,
    expand_layers,
    fingerprint,
)


def _fill(bus, n, layer="engine.fpc", kind="handle", flow=1):
    for i in range(n):
        bus.emit(float(i), layer, "c", kind, flow, f"e{i}")


class TestLayers:
    def test_expand_none_is_everything(self):
        assert expand_layers(None) == set(ALL_LAYERS)
        assert expand_layers(["all"]) == set(ALL_LAYERS)

    def test_engine_shorthand(self):
        assert expand_layers(["engine"]) == set(ENGINE_LAYERS)
        assert all(layer.startswith("engine.") for layer in ENGINE_LAYERS)

    def test_unknown_layer_raises(self):
        with pytest.raises(ValueError, match="unknown trace layer"):
            expand_layers(["engine.bogus"])


class TestFiltering:
    def test_layer_mask(self):
        bus = TraceBus(layers=["engine.tx"])
        bus.emit(0.0, "engine.tx", "a/tx", "tx", 1, "kept")
        bus.emit(0.0, "engine.rx", "a/rx", "rx", 1, "filtered")
        assert len(bus) == 1
        assert bus.events[0].layer == "engine.tx"

    def test_count_by_kind(self):
        bus = TraceBus()
        _fill(bus, 3, layer="engine.fpc", kind="handle")
        _fill(bus, 2, layer="engine.tx", kind="tx")
        assert bus.count("handle") == 3
        assert bus.count("tx") == 2
        assert bus.count() == 5


class TestSampling:
    def test_head_keeps_first_and_counts_drops(self):
        bus = TraceBus(max_events=5)
        _fill(bus, 20)
        assert len(bus) == 5
        assert bus.dropped == 15
        assert bus.emitted == 20
        assert [event.detail for event in bus.events] == [f"e{i}" for i in range(5)]

    def test_reservoir_spans_the_stream(self):
        bus = TraceBus(max_events=10, sampling="reservoir")
        _fill(bus, 1000)
        assert len(bus) == 10
        # A head sample would top out at e9; a reservoir reaches the tail.
        assert any(int(str(e.detail)[1:]) >= 500 for e in bus.events)

    def test_reservoir_is_seed_deterministic(self):
        def sample():
            bus = TraceBus(max_events=10, sampling="reservoir")
            _fill(bus, 1000)
            return [event.detail for event in bus.events]

        assert sample() == sample()

    def test_invalid_sampling_rejected(self):
        with pytest.raises(ValueError):
            TraceBus(sampling="tail")

    def test_clear_resets_everything(self):
        bus = TraceBus(max_events=2)
        _fill(bus, 5)
        bus.clear()
        assert len(bus) == 0 and bus.dropped == 0 and bus.emitted == 0


class TestFingerprint:
    def test_stable_for_identical_streams(self):
        one, two = TraceBus(), TraceBus()
        _fill(one, 50)
        _fill(two, 50)
        assert fingerprint(one.events) == fingerprint(two.events)

    def test_any_divergence_changes_it(self):
        one, two = TraceBus(), TraceBus()
        _fill(one, 50)
        _fill(two, 50)
        two.emit(99.0, "engine.tx", "a/tx", "tx", 1, "extra")
        assert fingerprint(one.events) != fingerprint(two.events)

    def test_normalized_covers_dict_details(self):
        event = TraceEvent(1.0, "engine.mem", "a/memmgr", "sample", -1,
                           {"b": 2.0, "a": 1.0})
        assert event.normalized() == "1|engine.mem|a/memmgr|sample|-1|a=1,b=2|0"
