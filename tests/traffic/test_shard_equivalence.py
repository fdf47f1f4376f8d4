"""Sharding an existing traffic scenario must not move its trace.

``Scenario.split`` deals the classes round-robin into cells while
keeping the parent name and seed, so every class's derived RNG streams
(arrivals, sizes, think times) are bit-identical to the unsplit run.
A single-cell split therefore reproduces the pinned pre-PR-5 golden of
``test_kernel_equivalence.py`` exactly, and the merged multi-cell
fingerprint is its own golden — worker-count invariant like every
shard digest.
"""

import pytest

from repro.obs.trace import merge_fingerprints
from repro.shard import run_traffic_shard
from repro.traffic import get_scenario

from .test_kernel_equivalence import GOLDEN

#: Merged fingerprint of the per-class split of ``mixed`` (seed 1234).
#: Moves only when simulated kernel behaviour moves — re-capture
#: deliberately, with a reason.  Last re-captured at PR 23 with
#: ``GOLDEN`` (one clock per engine; see test_kernel_equivalence.py).
GOLDEN_MIXED_SPLIT = (
    "99604b9242e83c950a804aa195833d1f93187c7a579570678aac21fac5df450a"
)


class TestScenarioSplit:
    def test_split_partitions_all_classes(self):
        scenario = get_scenario("mixed", seed=1234)
        parts = scenario.split(2)
        names = sorted(c.name for part in parts for c in part.classes)
        assert names == sorted(c.name for c in scenario.classes)
        assert all(part.name == scenario.name for part in parts)
        assert all(part.seed == scenario.seed for part in parts)

    def test_default_split_is_one_class_per_cell(self):
        scenario = get_scenario("mixed", seed=1234)
        parts = scenario.split()
        assert len(parts) == len(scenario.classes)
        assert all(len(part.classes) == 1 for part in parts)

    def test_more_cells_than_classes_clamps(self):
        scenario = get_scenario("mixed", seed=1234)
        assert len(scenario.split(99)) == len(scenario.classes)

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("mixed", seed=1234).split(0)


class TestSingleCellEquivalence:
    def test_one_cell_reproduces_the_unsplit_golden(self):
        result = run_traffic_shard(
            get_scenario("mixed", seed=1234), cells=1, workers=1
        )
        assert result.num_cells == 1
        (cell,) = result.cells
        assert cell.fingerprint == GOLDEN["mixed"]
        assert result.fingerprint == merge_fingerprints([GOLDEN["mixed"]])

    def test_all_cells_finish(self):
        result = run_traffic_shard(get_scenario("mixed", seed=1234))
        assert result.finished


class TestSplitGoldens:
    def test_per_class_split_matches_pinned_golden(self):
        result = run_traffic_shard(get_scenario("mixed", seed=1234))
        assert result.fingerprint == GOLDEN_MIXED_SPLIT

    def test_merged_fingerprint_worker_invariant(self):
        sequential = run_traffic_shard(
            get_scenario("mixed", seed=1234), workers=1
        )
        pooled = run_traffic_shard(
            get_scenario("mixed", seed=1234), workers=2
        )
        assert sequential.fingerprint == GOLDEN_MIXED_SPLIT
        assert pooled.fingerprint == GOLDEN_MIXED_SPLIT
        assert (
            [c.fingerprint for c in sequential.cells]
            == [c.fingerprint for c in pooled.cells]
        )
