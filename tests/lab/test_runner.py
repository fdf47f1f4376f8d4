"""The worker pool: execution, caching, resume, retry, timeout, speedup."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.lab.grid import ExperimentGrid, PointResult
from repro.lab.runner import run_grid
from repro.lab.store import RunStore


def log_lines(path):
    try:
        with open(path) as handle:
            return [int(line) for line in handle.read().split()]
    except FileNotFoundError:
        return []


def record_grid(tmp_path, n=4, name="exp", sleep_s=0.0, seeds=None):
    return ExperimentGrid(
        name=name,
        driver="tests.lab._drivers:record_point",
        domains={"x": list(range(n))},
        base={"log_path": str(tmp_path / "log.txt"), "sleep_s": sleep_s},
        seeds=seeds,
    )


class TestSerialExecution:
    def test_runs_every_point(self, tmp_path):
        db = str(tmp_path / "runs.sqlite")
        report = run_grid(record_grid(tmp_path), db)
        assert (report.total, report.done, report.errors) == (4, 4, 0)
        assert report.ok
        assert sorted(log_lines(tmp_path / "log.txt")) == [0, 1, 2, 3]
        with RunStore(db) as store:
            for record in store.records():
                assert record.status == "done"
                assert record.scalars["square"] == record.params["x"] ** 2
                assert record.wall_time_s is not None

    def test_provenance_on_every_row(self, tmp_path):
        import repro
        from repro.lab.grid import calibration_fingerprint

        db = str(tmp_path / "runs.sqlite")
        run_grid(record_grid(tmp_path, seeds=[11, 12]), db)
        with RunStore(db) as store:
            records = store.records()
            assert len(records) == 8
            for record in records:
                assert record.package_version == repro.__version__
                assert record.calibration_hash == calibration_fingerprint()
                assert record.git_sha
                assert record.seed in (11, 12)
                assert record.scalars["seed_used"] == record.seed

    def test_second_run_is_fully_cached(self, tmp_path):
        db = str(tmp_path / "runs.sqlite")
        run_grid(record_grid(tmp_path), db)
        report = run_grid(record_grid(tmp_path), db)
        assert report.cached == 4
        assert report.executed == 0
        # the driver really did not run again
        assert len(log_lines(tmp_path / "log.txt")) == 4

    def test_changed_params_only_run_new_points(self, tmp_path):
        db = str(tmp_path / "runs.sqlite")
        run_grid(record_grid(tmp_path, n=3), db)
        report = run_grid(record_grid(tmp_path, n=5), db)  # 2 new points
        assert report.cached == 3
        assert report.done == 5
        assert len(log_lines(tmp_path / "log.txt")) == 5


class TestResume:
    def test_killed_pool_resumes_only_non_done(self, tmp_path):
        """The acceptance scenario: rows left done/running by a killed
        pool; a fresh ``lab run`` completes only the remainder."""
        db = str(tmp_path / "runs.sqlite")
        grid = record_grid(tmp_path, n=6)
        with RunStore(db) as store:
            store.sync_grid(grid)
            # simulate a pool killed mid-grid: 2 done, 2 stuck running
            for _ in range(2):
                record = store.claim("dead-worker")
                store.finish(record.run_id, PointResult({"square": 0.0}), 0.1, {})
            store.claim("dead-worker")
            store.claim("dead-worker")
            assert store.totals()["running"] == 2

        report = run_grid(grid, db)
        assert report.cached == 2  # the done rows never re-ran
        assert report.done == 6
        # 2 pre-done points never hit the driver; the other 4 did
        assert len(log_lines(tmp_path / "log.txt")) == 4


class TestRetry:
    def test_transient_failures_retry_until_success(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        grid = ExperimentGrid(
            name="flaky",
            driver="tests.lab._drivers:flaky_point",
            domains={"x": [1, 2]},
            base={"state_dir": str(state), "fail_times": 2},
        )
        db = str(tmp_path / "runs.sqlite")
        report = run_grid(grid, db, max_retries=2, backoff_base_s=0.01)
        assert report.done == 2
        assert report.errors == 0
        with RunStore(db) as store:
            for record in store.records():
                assert record.attempts == 3
                assert record.scalars["attempts_needed"] == 3.0

    def test_exhausted_retries_become_error(self, tmp_path):
        grid = ExperimentGrid(
            name="broken",
            driver="tests.lab._drivers:broken_point",
            domains={"x": [1]},
        )
        db = str(tmp_path / "runs.sqlite")
        report = run_grid(grid, db, max_retries=1, backoff_base_s=0.01)
        assert report.errors == 1
        assert not report.ok
        with RunStore(db) as store:
            record = store.records()[0]
            assert record.status == "error"
            assert record.attempts == 2  # first try + one retry
            assert "always broken" in record.error

    def test_lab_retry_then_rerun_succeeds(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        grid = ExperimentGrid(
            name="flaky",
            driver="tests.lab._drivers:flaky_point",
            domains={"x": [5]},
            base={"state_dir": str(state), "fail_times": 2},
        )
        db = str(tmp_path / "runs.sqlite")
        # no retries: the transient failure becomes an error row
        report = run_grid(grid, db, max_retries=0)
        assert report.errors == 1
        with RunStore(db) as store:
            assert store.reset_errors() == 1
        report = run_grid(grid, db, max_retries=1, backoff_base_s=0.01)
        assert report.errors == 0
        assert report.done == 1

    def test_unresolvable_driver_is_permanent(self, tmp_path):
        grid = ExperimentGrid(
            name="missing",
            driver="tests.lab._drivers:not_a_function",
            domains={"x": [1]},
        )
        db = str(tmp_path / "runs.sqlite")
        report = run_grid(grid, db, max_retries=5, backoff_base_s=0.01)
        assert report.errors == 1
        with RunStore(db) as store:
            assert store.records()[0].attempts == 1  # no pointless retries


class TestTimeout:
    def test_wedged_driver_times_out(self, tmp_path):
        grid = ExperimentGrid(
            name="sleepy",
            driver="tests.lab._drivers:sleepy_point",
            domains={"x": [1]},
            base={"sleep_s": 30.0},
        )
        db = str(tmp_path / "runs.sqlite")
        started = time.monotonic()
        report = run_grid(grid, db, timeout_s=0.3, max_retries=0)
        assert time.monotonic() - started < 10.0
        assert report.errors == 1
        with RunStore(db) as store:
            assert "timeout" in store.records()[0].error


class TestParallel:
    def test_pool_beats_serial_by_2x(self, tmp_path):
        """12 sleep-bound points on 4 workers must finish in well under
        half the summed per-run wall time (the serial cost)."""
        grid = record_grid(tmp_path, n=12, sleep_s=0.25)
        db = str(tmp_path / "runs.sqlite")
        report = run_grid(grid, db, workers=4, timeout_s=30)
        assert report.done == 12
        assert report.errors == 0
        assert sorted(log_lines(tmp_path / "log.txt")) == list(range(12))
        with RunStore(db) as store:
            serial_cost = sum(r.wall_time_s for r in store.records())
            workers_used = {r.worker for r in store.records()}
        assert serial_cost >= 12 * 0.25
        assert report.elapsed_s < serial_cost / 2
        assert len(workers_used) > 1

    def test_parallel_pool_resumes_cached_points(self, tmp_path):
        grid = record_grid(tmp_path, n=6, sleep_s=0.05)
        db = str(tmp_path / "runs.sqlite")
        run_grid(grid, db, workers=1)
        report = run_grid(grid, db, workers=3)
        assert report.cached == 6
        assert report.executed == 0
        assert len(log_lines(tmp_path / "log.txt")) == 6


class TestWorkerDeath:
    def test_sigkilled_worker_is_never_a_clean_partial_run(self, tmp_path):
        """A pool worker SIGKILLed mid-row leaves that row ``running``;
        the orchestrator reclaims and finishes it in-process — the run
        is 4/4 done or not ok, never ok with a row still ``running``."""
        grid = ExperimentGrid(
            name="sleepy",
            driver="tests.lab._drivers:sleepy_point",
            domains={"x": [1, 2, 3, 4]},
            base={"sleep_s": 0.6},
        )
        db = str(tmp_path / "runs.sqlite")

        def kill_one():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                workers = [
                    p for p in multiprocessing.active_children()
                    if p.name.startswith("lab-worker-")
                ]
                if len(workers) == 2:
                    time.sleep(0.3)  # both are inside a row by now
                    os.kill(workers[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_one)
        killer.start()
        try:
            report = run_grid(grid, db, workers=2, timeout_s=30)
        finally:
            killer.join(timeout=30)
        assert report.totals["running"] == 0
        assert (report.done, report.ok) == (4, True)
        with RunStore(db) as store:
            reclaimed = [r for r in store.records() if r.attempts == 2]
        assert [r.worker for r in reclaimed] == ["worker-serial"]
