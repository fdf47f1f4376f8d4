"""Engine counts and percentile histograms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.engine.ftengine import FtEngine
from repro.sim.stats import Histogram


class TestCounters:
    def test_missing_is_zero(self):
        """An engine's counts read a name never counted as 0, and the
        read adds no entry."""
        engine = FtEngine(ip=0x0A000001)
        assert engine.counters["nothing"] == 0
        assert "nothing" not in engine.counters


class TestHistogram:
    def test_median_and_p99(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.median == pytest.approx(50.5)
        assert hist.p99 == pytest.approx(99.01)

    def test_single_sample(self):
        hist = Histogram()
        hist.record(7.0)
        assert hist.median == 7.0
        assert hist.p99 == 7.0
        assert hist.percentile(0) == 7.0
        assert hist.percentile(100) == 7.0

    def test_empty_is_nan_not_an_error(self):
        # A class with zero completions must still render a report row.
        hist = Histogram()
        assert math.isnan(hist.median)
        assert math.isnan(hist.percentile(99))
        assert math.isnan(hist.mean)
        assert math.isnan(hist.max)

    def test_empty_still_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_mean_and_max(self):
        hist = Histogram()
        for value in (1.0, 2.0, 6.0):
            hist.record(value)
        assert hist.mean == pytest.approx(3.0)
        assert hist.max == 6.0

    def test_records_after_percentile_queries(self):
        hist = Histogram()
        hist.record(1.0)
        assert hist.median == 1.0
        hist.record(3.0)
        assert hist.median == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_are_monotone_and_bounded(self, samples):
        hist = Histogram()
        for sample in samples:
            hist.record(sample)
        p50, p90, p99 = hist.percentile(50), hist.percentile(90), hist.percentile(99)
        epsilon = 1e-9 * (1 + max(samples))  # interpolation rounding slack
        assert min(samples) - epsilon <= p50 <= p90 + epsilon
        assert p90 <= p99 + epsilon
        assert p99 <= max(samples) + epsilon
