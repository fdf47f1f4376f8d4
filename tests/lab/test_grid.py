"""Grid expansion, content-hash run ids, driver resolution, provenance."""

import pytest

from repro.analysis.reporting import ExperimentResult
from repro.lab.grid import (
    ExperimentGrid,
    GridPoint,
    calibration_fingerprint,
    driver_path,
    normalize_result,
    provenance,
    resolve_driver,
)

from ._drivers import record_point

DRIVER = "tests.lab._drivers:record_point"


class TestExpansion:
    def test_cartesian_product(self):
        grid = ExperimentGrid(
            name="g", driver=DRIVER, domains={"a": [1, 2], "b": [3, 4, 5]}
        )
        points = grid.expand()
        assert len(points) == 6
        assert {(p.params["a"], p.params["b"]) for p in points} == {
            (a, b) for a in (1, 2) for b in (3, 4, 5)
        }

    def test_explicit_points_and_base(self):
        grid = ExperimentGrid(
            name="g",
            driver=DRIVER,
            points=[{"a": 1}, {"a": 2, "extra": True}],
            base={"shared": 9, "a": 0},
        )
        points = grid.expand()
        assert len(points) == 2
        assert all(p.params["shared"] == 9 for p in points)
        assert points[0].params["a"] == 1  # explicit overrides base
        assert points[1].params["extra"] is True

    def test_base_only_single_point(self):
        grid = ExperimentGrid(name="g", driver=DRIVER, base={"a": 1})
        assert len(grid.expand()) == 1

    def test_seeds_replicate_every_point(self):
        grid = ExperimentGrid(
            name="g", driver=DRIVER, domains={"a": [1, 2]}, seeds=[7, 8, 9]
        )
        points = grid.expand()
        assert len(points) == 6
        assert {p.seed for p in points} == {7, 8, 9}

    def test_duplicate_points_collapse(self):
        grid = ExperimentGrid(
            name="g", driver=DRIVER, domains={"a": [1]}, points=[{"a": 1}]
        )
        assert len(grid.expand()) == 1


class TestRunIds:
    def test_stable_across_instances(self):
        make = lambda: GridPoint("exp", DRIVER, {"a": 1, "b": 2}, seed=3)
        assert make().run_id == make().run_id

    def test_param_order_irrelevant(self):
        one = GridPoint("exp", DRIVER, {"a": 1, "b": 2})
        two = GridPoint("exp", DRIVER, {"b": 2, "a": 1})
        assert one.run_id == two.run_id

    @pytest.mark.parametrize(
        "other",
        [
            GridPoint("exp", DRIVER, {"a": 1, "b": 3}),  # param value
            GridPoint("exp", DRIVER, {"a": 1}),  # param set
            GridPoint("exp2", DRIVER, {"a": 1, "b": 2}),  # experiment
            GridPoint("exp", DRIVER + "x", {"a": 1, "b": 2}),  # driver
            GridPoint("exp", DRIVER, {"a": 1, "b": 2}, seed=1),  # seed
        ],
    )
    def test_any_content_change_changes_id(self, other):
        base = GridPoint("exp", DRIVER, {"a": 1, "b": 2})
        assert base.run_id != other.run_id

    def test_seed_reaches_driver_kwargs(self):
        point = GridPoint("exp", DRIVER, {"a": 1}, seed=42)
        assert point.kwargs() == {"a": 1, "seed": 42}
        assert GridPoint("exp", DRIVER, {"a": 1}).kwargs() == {"a": 1}


class TestDriverResolution:
    def test_roundtrip(self):
        assert resolve_driver(driver_path(record_point)) is record_point

    def test_callable_driver_converted_to_path(self):
        grid = ExperimentGrid(name="g", driver=record_point)
        assert grid.driver == DRIVER

    def test_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_driver("no.colon.here")
        with pytest.raises(ModuleNotFoundError):
            resolve_driver("not.a.module:fn")
        with pytest.raises(AttributeError):
            resolve_driver("tests.lab._drivers:missing_fn")


class TestNormalization:
    def test_mapping_of_numbers(self):
        result = normalize_result({"a": 1, "b": 2.5})
        assert result.scalars == {"a": 1.0, "b": 2.5}
        assert result.checks == {}
        # a count stays a count: exported as 1, tabulated as "1" not "1.00"
        assert type(result.scalars["a"]) is int

    def test_records_are_params_then_scalars_one_per_point(self, tmp_path):
        grid = ExperimentGrid(
            name="g",
            driver=DRIVER,
            domains={"x": [2, 3]},
            base={"log_path": str(tmp_path / "log")},
            seeds=[5],
        )
        records = grid.records()
        assert [r["x"] for r in records] == [2, 3]
        assert [r["square"] for r in records] == [4.0, 9.0]
        assert list(records[0]) == ["log_path", "x", "seed", "square", "seed_used"]

    def test_experiment_result_keeps_checks(self):
        exhibit = ExperimentResult(
            exhibit="Fig X", title="t", columns=["c"], rows=[(1,)]
        )
        exhibit.check("headline", paper=10.0, measured=10.5, tolerance=0.1)
        exhibit.check("off", paper=10.0, measured=99.0, tolerance=0.1)
        result = normalize_result(exhibit)
        assert result.scalars == {"headline": 10.5, "off": 99.0}
        assert result.checks["headline"]["passes"] is True
        assert result.checks["off"]["passes"] is False
        assert not result.all_checks_pass

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            normalize_result({"a": "fast"})
        with pytest.raises(TypeError):
            normalize_result({"a": True})
        with pytest.raises(TypeError):
            normalize_result([1, 2])


class TestProvenance:
    def test_fingerprint_is_stable(self):
        assert calibration_fingerprint() == calibration_fingerprint()
        assert len(calibration_fingerprint()) == 12

    def test_provenance_fields(self):
        import repro

        record = provenance(seed=5)
        assert record["package_version"] == repro.__version__
        assert record["seed"] == 5
        assert record["calibration_hash"] == calibration_fingerprint()
        assert record["git_sha"]  # a sha in a checkout, "unknown" elsewhere
