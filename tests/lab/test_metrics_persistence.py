"""Lab runs persist full metrics snapshots alongside scalars."""

import sqlite3

from repro.lab.grid import ExperimentGrid, PointResult, normalize_result
from repro.lab.store import RunStore
from repro.obs.metrics import MetricsSnapshot


def _grid():
    return ExperimentGrid(
        name="metrics-smoke",
        driver="repro.lab.drivers:traffic_scenario_point",
        points=[{"scenario": "mixed"}],
        seeds=[1],
    )


def _snapshot(result):
    return MetricsSnapshot([
        (row["name"], row["kind"], row["labels"], row["value"])
        for row in result.metrics
    ])


def _result():
    return PointResult(
        scalars={"x": 1.0},
        metrics=[
            {"name": "frames", "kind": "counter",
             "labels": {"engine": "a"}, "value": 3.0},
        ],
    )


class TestPointResultMetrics:
    def test_default_is_none(self):
        assert normalize_result({"x": 1.0}).metrics is None

    def test_snapshot_round_trip(self):
        snapshot = _snapshot(_result())
        assert snapshot.value("frames", engine="a") == 3.0

    def test_traffic_driver_carries_a_snapshot(self):
        from repro.lab.drivers import traffic_scenario_point

        result = normalize_result(traffic_scenario_point("mixed", seed=1))
        assert result.metrics
        snapshot = _snapshot(result)
        assert snapshot.value("achieved_rps", component="traffic", cls="rpc") > 0
        # engine-side counters made it in too, labeled per engine
        assert any(row[2].get("engine") == "a" for row in snapshot.rows)


class TestStoreMetricsColumn:
    def test_finish_persists_and_get_decodes(self, tmp_path):
        with RunStore(str(tmp_path / "runs.db")) as store:
            store.sync_grid(_grid())
            record = store.claim("w0")
            store.finish(record.run_id, _result(), 0.1, {"git_sha": "x"})
            back = store.get(record.run_id)
            assert back.metrics == _result().metrics

    def test_metrics_none_stays_null(self, tmp_path):
        with RunStore(str(tmp_path / "runs.db")) as store:
            store.sync_grid(_grid())
            record = store.claim("w0")
            store.finish(
                record.run_id, PointResult(scalars={"x": 1.0}), 0.1, {}
            )
            assert store.get(record.run_id).metrics is None

    def test_old_database_is_migrated_in_place(self, tmp_path):
        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        # the pre-metrics schema, as shipped by earlier versions
        conn.executescript(
            """
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY, experiment TEXT NOT NULL,
                driver TEXT NOT NULL, params TEXT NOT NULL, seed INTEGER,
                status TEXT NOT NULL DEFAULT 'pending',
                attempts INTEGER NOT NULL DEFAULT 0,
                not_before REAL NOT NULL DEFAULT 0,
                scalars TEXT, checks TEXT, error TEXT, wall_time_s REAL,
                git_sha TEXT, package_version TEXT, calibration_hash TEXT,
                worker TEXT, created_at REAL NOT NULL,
                started_at REAL, finished_at REAL
            );
            """
        )
        conn.execute(
            "INSERT INTO runs (run_id, experiment, driver, params, created_at)"
            " VALUES ('abc', 'e', 'd', '{}', 0)"
        )
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            record = store.get("abc")
            assert record is not None
            assert record.metrics is None
