"""Arrival processes and size distributions: statistics and replay."""

import random

import pytest

from repro.traffic import Fixed, FlashCrowd, OnOffBursts, Poisson, Zipf


S = 10**12  # the instants are integer picoseconds


def _times(process, duration_s, seed=1):
    return process.times(random.Random(seed), duration_s)


class TestArrivals:
    def test_poisson_mean_rate(self):
        times = _times(Poisson(rate=10_000.0), 1.0)
        assert len(times) == pytest.approx(10_000, rel=0.05)
        assert all(isinstance(t, int) and 0 <= t <= S for t in times)
        assert times == sorted(times)

    def test_poisson_replay_and_seed_sensitivity(self):
        process = Poisson(rate=5000.0)
        assert _times(process, 0.1, seed=3) == _times(process, 0.1, seed=3)
        assert _times(process, 0.1, seed=3) != _times(process, 0.1, seed=4)

    def test_onoff_same_mean_load_but_clumped(self):
        bursty = OnOffBursts(burst_rate=30_000.0, mean_on_s=1e-3, mean_off_s=2e-3)
        times = _times(bursty, 2.0)
        assert len(times) == pytest.approx(20_000, rel=0.1)
        # Clumping: the variance of per-bin counts far exceeds Poisson's.
        bins = [0] * 2000
        for t in times:
            bins[t // 10**9] += 1
        mean = sum(bins) / len(bins)
        variance = sum((b - mean) ** 2 for b in bins) / len(bins)
        assert variance > 3 * mean

    def test_flash_crowd_ramp_concentrates_arrivals(self):
        flash = FlashCrowd(
            base_rate=10_000.0,
            peak_multiplier=5.0,
            ramp_start_s=0.4,
            ramp_duration_s=0.2,
        )
        assert flash.rate_at(0.3) == pytest.approx(10_000.0)
        assert flash.rate_at(0.5) == pytest.approx(50_000.0)
        assert flash.rate_at(0.7) == pytest.approx(10_000.0)
        times = _times(flash, 1.0)
        in_ramp = sum(1 for t in times if 0.4 * S <= t < 0.6 * S)
        before = sum(1 for t in times if 0 <= t < 0.2 * S)
        # The ramp window averages 3x the base rate.
        assert in_ramp > 2 * before

    def test_scaled_multiplies_rates(self):
        assert Poisson(100.0).scaled(3.0).rate == 300.0
        bursty = OnOffBursts(
            burst_rate=100.0, mean_on_s=1.0, mean_off_s=1.0, idle_rate=10.0
        ).scaled(2.0)
        assert bursty.burst_rate == 200.0 and bursty.idle_rate == 20.0
        assert FlashCrowd(100.0, 5.0, 0.1, 0.1).scaled(2.0).base_rate == 200.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_scaled_rejects_a_factor_of_zero_or_less(self, factor):
        """A negative rate makes exponential gaps negative, so ``times``
        would never pass the horizon; zero divides by zero."""
        for process in (
            Poisson(100.0),
            OnOffBursts(burst_rate=100.0, mean_on_s=1.0, mean_off_s=1.0),
            FlashCrowd(100.0, 5.0, 0.1, 0.1),
        ):
            with pytest.raises(ValueError, match="above zero"):
                process.scaled(factor)


class TestSizes:
    def test_fixed(self):
        assert Fixed(128).sample(random.Random(0)) == 128

    def test_zipf_rank_skew(self):
        dist = Zipf(minimum=64, maximum=65536)
        rng = random.Random(9)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert min(samples) == 64
        assert max(samples) == 65536
        smallest_share = samples.count(64) / len(samples)
        assert smallest_share > 0.25  # rank-1 bucket dominates by count

    def test_replay(self):
        for dist in (Zipf(), Zipf(minimum=1024, maximum=65536)):
            a = [dist.sample(random.Random(2)) for _ in range(50)]
            b = [dist.sample(random.Random(2)) for _ in range(50)]
            assert a == b
