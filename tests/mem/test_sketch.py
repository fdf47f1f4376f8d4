"""repro.mem.sketch — estimator guarantees against the exact oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.sketch import (
    SKETCH_KINDS,
    CountMinSketch,
    ExactOracle,
    SpaceSavingSketch,
    accuracy_report,
    make_sketch,
    mix64,
)


def zipf_stream(n, keys=64, s=1.2, seed=7):
    rng = random.Random(seed)
    weights = [1.0 / (rank ** s) for rank in range(1, keys + 1)]
    return rng.choices(range(keys), weights=weights, k=n)


class TestMix64:
    def test_deterministic(self):
        assert mix64(42, 7) == mix64(42, 7)

    def test_seed_changes_output(self):
        assert mix64(42, 7) != mix64(42, 8)

    def test_stays_64_bit(self):
        assert 0 <= mix64(2**63, 2**31) < 2**64


class TestCountMin:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, seed=1)
        oracle = ExactOracle()
        for key in zipf_stream(5000, keys=512):
            sketch.update(key)
            oracle.update(key)
        for key in range(512):
            assert sketch.estimate(key) >= oracle.estimate(key)

    def test_exact_when_uncontended(self):
        sketch = CountMinSketch(width=4096, seed=1)
        for _ in range(10):
            sketch.update(5)
        assert sketch.estimate(5) == 10
        assert sketch.estimate(6) == 0

    def test_heavy_hitter_recall(self):
        sketch = CountMinSketch(width=1024, seed=3)
        oracle = ExactOracle()
        for key in zipf_stream(20000):
            sketch.update(key)
            oracle.update(key)
        report = accuracy_report(sketch, oracle, keys=range(64), k=8)
        assert report["recall_at_k"] == 1.0
        assert report["mean_abs_error"] < 20

    def test_seeded_determinism(self):
        streams = zipf_stream(3000)
        a = CountMinSketch(width=256, seed=9)
        b = CountMinSketch(width=256, seed=9)
        for key in streams:
            a.update(key)
            b.update(key)
        assert all(a.estimate(k) == b.estimate(k) for k in range(64))
        assert a.heavy_hitters(8) == b.heavy_hitters(8)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)


class TestSpaceSaving:
    def test_guaranteed_monitoring_above_threshold(self):
        # Any key with true count > total/capacity must be monitored.
        sketch = SpaceSavingSketch(capacity=16)
        oracle = ExactOracle()
        for key in zipf_stream(10000, keys=256):
            sketch.update(key)
            oracle.update(key)
        threshold = oracle.total / sketch.capacity
        monitored = {key for key, _ in sketch.heavy_hitters(sketch.capacity)}
        for key in range(256):
            if oracle.estimate(key) > threshold:
                assert key in monitored, key

    def test_estimate_bounds(self):
        sketch = SpaceSavingSketch(capacity=8)
        oracle = ExactOracle()
        for key in zipf_stream(5000, keys=64):
            sketch.update(key)
            oracle.update(key)
        for key, estimate in sketch.heavy_hitters(8):
            true = oracle.estimate(key)
            assert estimate >= true
            assert estimate - sketch._errors.get(key, 0) <= true

    def test_replacements_counted(self):
        sketch = SpaceSavingSketch(capacity=2)
        for key in range(5):
            sketch.update(key)
        assert sketch.replacements == 3


class TestFactory:
    @pytest.mark.parametrize("kind", SKETCH_KINDS)
    def test_round_trip(self, kind):
        sketch = make_sketch(kind, width=64, seed=5)
        assert sketch.kind == kind
        sketch.update(3)
        assert sketch.estimate(3) >= 1

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            make_sketch("bloom")

    def test_width_scales_spacesaving_capacity(self):
        assert make_sketch("spacesaving", width=32).capacity == 32


class TestModelBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=500))
    def test_countmin_upper_bounds_every_key(self, stream):
        sketch = CountMinSketch(width=32, seed=11)
        oracle = ExactOracle()
        for key in stream:
            sketch.update(key)
            oracle.update(key)
        for key in set(stream):
            assert sketch.estimate(key) >= oracle.estimate(key)
            # Count-min total error is bounded by the stream length.
            assert sketch.estimate(key) <= len(stream)
