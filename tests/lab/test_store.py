"""The SQLite run store: lifecycle, claiming, resets, counting."""

import random
import time

import pytest

from repro import CorruptStoreError
from repro.__main__ import main
from repro.lab.grid import ExperimentGrid, PointResult
from repro.lab.store import RunStore

DRIVER = "tests.lab._drivers:record_point"


@pytest.fixture
def store(tmp_path):
    with RunStore(str(tmp_path / "runs.sqlite")) as opened:
        yield opened


def small_grid(n: int = 3, name: str = "exp") -> ExperimentGrid:
    return ExperimentGrid(name=name, driver=DRIVER, domains={"x": list(range(n))})


class TestSync:
    def test_inserts_pending_rows(self, store):
        new, existing = store.sync_grid(small_grid())
        assert (new, existing) == (3, 0)
        assert store.totals()["pending"] == 3

    def test_resync_is_idempotent(self, store):
        store.sync_grid(small_grid())
        new, existing = store.sync_grid(small_grid())
        assert (new, existing) == (0, 3)
        assert store.totals()["pending"] == 3

    def test_done_rows_survive_resync(self, store):
        store.sync_grid(small_grid())
        record = store.claim("w")
        store.finish(record.run_id, PointResult({"square": 1.0}), 0.1, {})
        store.sync_grid(small_grid())
        assert store.totals()["done"] == 1
        assert store.totals()["pending"] == 2


class TestClaiming:
    def test_claim_moves_to_running(self, store):
        store.sync_grid(small_grid())
        record = store.claim("worker-a")
        assert record.status == "running"
        assert record.attempts == 1
        assert record.worker == "worker-a"
        assert store.totals()["running"] == 1

    def test_each_row_claimed_once(self, store):
        store.sync_grid(small_grid())
        claimed = {store.claim("w").run_id for _ in range(3)}
        assert len(claimed) == 3
        assert store.claim("w") is None

    def test_claim_respects_experiment_filter(self, store):
        store.sync_grid(small_grid(name="one"))
        store.sync_grid(small_grid(name="two"))
        record = store.claim("w", experiments=["two"])
        assert record.experiment == "two"
        assert store.claim("w", experiments=["missing"]) is None

    def test_backoff_gates_claiming(self, store):
        store.sync_grid(small_grid(n=1))
        record = store.claim("w")
        store.fail(record.run_id, "boom", retry_not_before=time.time() + 60)
        assert store.totals()["pending"] == 1
        assert store.claim("w") is None  # not eligible yet
        # make it eligible and claim again: attempts accumulate
        store.fail(record.run_id, "boom", retry_not_before=time.time() - 1)
        retried = store.claim("w")
        assert retried.run_id == record.run_id
        assert retried.attempts == 2


class TestFinishAndFail:
    def test_finish_records_everything(self, store):
        store.sync_grid(small_grid(n=1))
        record = store.claim("w")
        store.finish(
            record.run_id,
            PointResult(
                scalars={"square": 4.0},
                checks={"c": {"paper": 1, "measured": 1, "tolerance": 0, "passes": True}},
            ),
            wall_time_s=1.25,
            provenance={
                "git_sha": "abc123",
                "package_version": "9.9.9",
                "calibration_hash": "fff",
            },
        )
        done = store.get(record.run_id)
        assert done.status == "done"
        assert done.scalars == {"square": 4.0}
        assert done.checks["c"]["passes"] is True
        assert done.wall_time_s == 1.25
        assert (done.git_sha, done.package_version, done.calibration_hash) == (
            "abc123", "9.9.9", "fff",
        )
        assert done.finished_at is not None

    def test_final_failure_is_error(self, store):
        store.sync_grid(small_grid(n=1))
        record = store.claim("w")
        store.fail(record.run_id, "ValueError: nope")
        failed = store.get(record.run_id)
        assert failed.status == "error"
        assert "nope" in failed.error


class TestResets:
    def test_reset_running_reclaims_stale_rows(self, store):
        store.sync_grid(small_grid())
        store.claim("w")
        store.claim("w")
        assert store.reset_running() == 2
        assert store.totals() == {"pending": 3, "running": 0, "done": 0, "error": 0}

    def test_reset_errors_clears_attempts(self, store):
        store.sync_grid(small_grid(n=1))
        record = store.claim("w")
        store.fail(record.run_id, "boom")
        assert store.reset_errors() == 1
        reset = store.get(record.run_id)
        assert reset.status == "pending"
        assert reset.attempts == 0
        # the error text stays for forensics until the next claim
        assert "boom" in reset.error


class TestCounting:
    def test_counts_and_totals(self, store):
        store.sync_grid(small_grid(name="one"))
        store.sync_grid(small_grid(name="two", n=2))
        record = store.claim("w", experiments=["one"])
        store.finish(record.run_id, PointResult({"square": 0.0}), 0.5, {})
        counts = store.counts()
        assert counts["one"] == {"pending": 2, "running": 0, "done": 1, "error": 0}
        assert counts["two"]["pending"] == 2
        assert store.totals()["pending"] == 4
        assert store.totals(["two"])["pending"] == 2

    def test_mean_wall_time(self, store):
        store.sync_grid(small_grid())
        for wall in (1.0, 3.0):
            record = store.claim("w")
            store.finish(record.run_id, PointResult({"square": 0.0}), wall, {})
        assert store.mean_wall_time() == pytest.approx(2.0)


def _corrupt_stores(tmp_path):
    """A file of random bytes, and a real store truncated to half its size."""
    noise = tmp_path / "noise.sqlite"
    noise.write_bytes(random.Random(7).randbytes(4096))
    real = tmp_path / "real.sqlite"
    with RunStore(str(real)) as store:
        store.sync_grid(small_grid(n=300))
        store._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    data = real.read_bytes()
    half = tmp_path / "half.sqlite"
    half.write_bytes(data[: len(data) // 2])
    return [noise, half]


class TestCorruptStore:
    def test_open_raises_one_error_naming_the_file(self, tmp_path):
        for path in _corrupt_stores(tmp_path):
            with pytest.raises(CorruptStoreError) as info:
                RunStore(str(path))
            assert str(path) in info.value.args[0]

    def test_cli_prints_one_line_and_exits_2(self, tmp_path, capsys):
        for path in _corrupt_stores(tmp_path):
            assert main(["lab", "status", "--db", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(path) in err
            assert "Traceback" not in err
