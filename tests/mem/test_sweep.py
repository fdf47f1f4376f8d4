"""repro.mem.sweep — replay determinism and the two acceptance claims.

The geometry sweep is the ``mem-geometry`` grid run in-process — the
rows ``python -m repro mem sweep`` tabulates and ``lab run`` persists.
"""

import pytest

from repro.__main__ import main
from repro.lab.grids import get_grid, mem_geometry_grid
from repro.mem.sweep import (
    DEFAULT_BASELINE_GEOMETRY,
    best_improvement,
    compare_policies,
    run_mem_point,
    synth_accesses,
)


def sweep_csv(capsys):
    assert main(["mem", "sweep", "--quick", "--csv", "-"]) == 0
    out = capsys.readouterr().out
    return out[:out.index("best:")]


class TestSynthAccesses:
    def test_deterministic(self):
        assert synth_accesses(500, seed=3) == synth_accesses(500, seed=3)

    def test_churn_ids_are_one_shot(self):
        stream = synth_accesses(2000, working_set=64, churn=0.5, seed=1)
        churn_ids = [flow for flow in stream if flow >= 64]
        assert len(churn_ids) == len(set(churn_ids))
        assert churn_ids  # at 50% churn some must appear

    def test_zero_churn_stays_in_working_set(self):
        stream = synth_accesses(500, working_set=32, churn=0.0, seed=1)
        assert all(flow < 32 for flow in stream)


class TestSweep:
    def test_point_row_is_flat_and_consistent(self):
        row = run_mem_point(events=2000)
        assert row["hits"] + row["misses"] == 2000
        assert row["dram_charges"] == row["misses"] + row["writebacks"]
        assert 0.0 <= row["hit_rate"] <= 1.0

    @pytest.fixture(scope="class")
    def rows(self):
        return mem_geometry_grid(quick=True).records()

    def test_csv_byte_deterministic(self, capsys):
        assert sweep_csv(capsys) == sweep_csv(capsys)

    def test_csv_keeps_the_columns_only_two_level_rows_have(self, capsys):
        """The header used to come from the first row (one level), so
        the two-level geometry's ``l1_*`` stats never reached the file."""
        header, *lines = sweep_csv(capsys).splitlines()
        columns = header.split(",")
        assert header.startswith(
            "geometry,sketch,sketch_width,events,working_set,churn,seed,hits,"
        )
        assert "l1_hits" in columns
        for line in lines:
            cells = dict(zip(columns, line.split(",")))
            if "/" in cells["geometry"]:  # 64x4:lru/256x1:direct
                assert int(cells["l1_hits"]) > 0
            else:
                assert cells["l1_hits"] == ""

    def test_csv_cells_parse_back_to_the_run_exactly(self, rows, capsys):
        header, *lines = sweep_csv(capsys).splitlines()
        columns = header.split(",")
        for line, row in zip(lines, rows):
            cells = dict(zip(columns, line.split(",")))
            assert cells["geometry"] == row["geometry"]
            assert float(cells["hit_rate"]) == row["hit_rate"]
            assert float(cells["mean_abs_error"]) == row["mean_abs_error"]

    def test_some_geometry_beats_the_baseline_on_churn(self, rows):
        """ISSUE acceptance: >= 1 non-default point with strictly fewer
        DRAM charges than the direct-mapped baseline under churn."""
        best = best_improvement(rows)
        assert best is not None
        assert best["geometry"] != DEFAULT_BASELINE_GEOMETRY
        assert best["dram_charges_saved"] > 0

    def test_best_improvement_none_without_baseline(self, rows):
        swept = [r for r in rows if r["geometry"] != DEFAULT_BASELINE_GEOMETRY]
        assert best_improvement(swept) is None

    def test_verb_grid_is_the_registered_grid(self):
        """Twins are one: the verb's defaults and ``lab run
        mem-geometry`` expand to the same content-hash run ids."""
        for quick in (False, True):
            verb = mem_geometry_grid(quick, seed=1234)
            assert [p.run_id for p in verb.expand()] == [
                p.run_id for p in get_grid("mem-geometry", quick).expand()
            ]


class TestComparePolicies:
    def test_predictive_reduces_congestion_migrations(self):
        """ISSUE acceptance: the sketch-driven policy migrates less on a
        Zipf-skewed workload than the paper's reactive policy."""
        result = compare_policies()
        assert (
            result["predictive_congestion_migrations"]
            < result["reactive_congestion_migrations"]
        )
        assert result["predictive_declined_hot"] > 0

    def test_holds_across_seeds(self):
        for seed in (7, 99):
            result = compare_policies(events=2000, seed=seed)
            assert (
                result["predictive_congestion_migrations"]
                <= result["reactive_congestion_migrations"]
            ), seed
