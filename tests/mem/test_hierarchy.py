"""repro.mem.hierarchy — geometry parsing and eviction semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.hierarchy import (
    CacheGeometry,
    CacheLevelSpec,
    TcbCacheHierarchy,
)
from repro.mem.sketch import CountMinSketch


class TestGeometry:
    def test_parse_bare_int_is_direct(self):
        geometry = CacheGeometry.parse("512")
        assert geometry.capacity == 512
        assert geometry.render() == "512x1:direct"

    def test_parse_multi_level(self):
        geometry = CacheGeometry.parse("64x4:freq/1024x1:direct")
        assert [level.render() for level in geometry.levels] == [
            "64x4:freq", "1024x1:direct"
        ]
        assert geometry.capacity == 64 * 4 + 1024
        assert geometry.uses_sketch

    def test_parse_defaults_policy_to_direct(self):
        assert CacheGeometry.parse("128x1").levels[0].policy == "direct"

    @pytest.mark.parametrize("bad", ["", "axb", "128x4:direct", "128x0:lru",
                                     "128x4:mru"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            CacheGeometry.parse(bad)

    def test_freq_requires_sketch(self):
        with pytest.raises(ValueError):
            TcbCacheHierarchy(CacheGeometry.parse("16x4:freq"))


class TestDirectCompat:
    """The default shape must behave exactly like the old modulo list."""

    def test_matches_modulo_model(self):
        entries = 32
        hierarchy = TcbCacheHierarchy(CacheGeometry.direct_mapped(entries))
        model = [None] * entries
        import random
        rng = random.Random(5)
        for _ in range(2000):
            flow = rng.randrange(200)
            slot = flow % entries
            outcome = hierarchy.access(flow)
            if model[slot] == flow:
                assert outcome.hit and outcome.hit_level == 0
                assert not outcome.writebacks
            else:
                assert not outcome.hit
                expected_wb = (
                    [model[slot]] if model[slot] is not None else []
                )
                assert outcome.writebacks == expected_wb
                model[slot] = flow

    def test_at_most_one_writeback_per_access(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("4x2:lru/8x1:direct"))
        for flow in range(500):
            outcome = hierarchy.access(flow)
            assert len(outcome.writebacks) <= 1


class TestEviction:
    def test_lru_picks_least_recent(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("1x2:lru"))
        hierarchy.access(0)
        hierarchy.access(1)
        hierarchy.access(0)          # 1 is now LRU
        outcome = hierarchy.access(2)
        assert outcome.writebacks == [1]
        assert hierarchy.contains(0)

    def test_slru_protects_reused_lines(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("1x4:slru"))
        hierarchy.access(0)
        hierarchy.access(0)          # second touch -> protected
        for flow in (1, 2, 3):
            hierarchy.access(flow)
        # A churn flood of one-shot flows must not evict the protected 0.
        for flow in range(10, 20):
            hierarchy.access(flow)
        assert hierarchy.contains(0)

    def test_freq_keeps_sketch_heavy_lines(self):
        sketch = CountMinSketch(width=256, seed=2)
        hierarchy = TcbCacheHierarchy(
            CacheGeometry.parse("1x2:freq"), sketch=sketch
        )
        for _ in range(50):
            hierarchy.access(7)      # 7 becomes sketch-hot
        for flow in range(100, 120):  # one-shot churn flood
            hierarchy.access(flow)
        assert hierarchy.contains(7)

    def test_exclusive_one_copy_per_flow(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("2x2:lru/4x1:direct"))
        import random
        rng = random.Random(3)
        for _ in range(1000):
            hierarchy.access(rng.randrange(40))
            seen = {}
            for level, level_sets in enumerate(hierarchy._sets):
                for bucket in level_sets:
                    for flow in bucket:
                        assert flow not in seen, "duplicate line"
                        seen[flow] = level
            assert seen == hierarchy._where

    def test_lower_level_hit_promotes(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("1x1:lru/4x1:direct"))
        hierarchy.access(0)
        hierarchy.access(1)          # 0 demoted to level 1
        assert hierarchy._where.get(0) == 1
        outcome = hierarchy.access(0)
        assert outcome.hit_level == 1
        assert outcome.promoted_from == 1
        assert hierarchy._where.get(0) == 0

    def test_invalidate(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("4x2:lru"))
        hierarchy.access(0)
        assert hierarchy.invalidate(0)
        assert not hierarchy.contains(0)
        assert not hierarchy.invalidate(0)
        assert hierarchy.invalidations == 1


class TestStats:
    def test_flat_stats_shape(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse("2x2:lru/4x1:direct"))
        for flow in range(20):
            hierarchy.access(flow)
        stats = hierarchy.stats()
        assert stats["capacity"] == 8
        assert stats["misses"] == 20
        assert {"l0_hits", "l0_fills", "l1_hits", "l1_evictions"} <= set(stats)
        assert stats["occupancy"] == len(hierarchy)

    def test_hit_rate(self):
        hierarchy = TcbCacheHierarchy(CacheGeometry.direct_mapped(8))
        assert hierarchy.hit_rate == 0.0
        hierarchy.access(1)
        hierarchy.access(1)
        assert hierarchy.hit_rate == 0.5


class TestModelBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=60), max_size=300),
        st.sampled_from(["8", "2x4:lru", "2x4:slru", "4x2:lru/8x1:direct"]),
    )
    def test_containment_matches_fill_minus_writeback(self, stream, spec):
        """Every accessed flow is resident until written back or demoted."""
        hierarchy = TcbCacheHierarchy(CacheGeometry.parse(spec))
        resident = set()
        for flow in stream:
            outcome = hierarchy.access(flow)
            resident.add(flow)
            for victim in outcome.writebacks:
                resident.discard(victim)
            assert hierarchy.contains(flow)
        assert resident == set(hierarchy._where)
        assert len(resident) <= hierarchy.geometry.capacity
