"""The SQLite-backed run store.

One row per :class:`~repro.lab.grid.GridPoint`, keyed by its content-hash
``run_id``.  The status column is the whole lifecycle::

    pending --claim()--> running --finish()--> done
                            |
                            +--fail(retry)--> pending   (not_before = backoff)
                            +--fail(final)--> error

Workers in separate processes share one database file: claiming uses a
``BEGIN IMMEDIATE`` transaction so exactly one worker wins each pending
row, and WAL mode plus a busy timeout keep concurrent readers/writers
from tripping over each other.  Because ``run_id`` is a content hash,
re-syncing the same grid is idempotent — points already ``done`` are
simply skipped, which is both crash-resume and incremental caching.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .grid import ExperimentGrid, GridPoint, PointResult, canonical_json

STATUSES = ("pending", "running", "done", "error")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    experiment      TEXT NOT NULL,
    driver          TEXT NOT NULL,
    params          TEXT NOT NULL,           -- canonical JSON
    seed            INTEGER,
    status          TEXT NOT NULL DEFAULT 'pending',
    attempts        INTEGER NOT NULL DEFAULT 0,
    not_before      REAL NOT NULL DEFAULT 0, -- epoch s; retry backoff gate
    scalars         TEXT,                    -- JSON name -> float
    checks          TEXT,                    -- JSON name -> check dict
    metrics         TEXT,                    -- JSON MetricsSnapshot rows
    error           TEXT,
    wall_time_s     REAL,
    git_sha         TEXT,
    package_version TEXT,
    calibration_hash TEXT,
    worker          TEXT,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL
);
CREATE INDEX IF NOT EXISTS idx_runs_claim ON runs(status, not_before);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs(experiment);
"""


@dataclass
class RunRecord:
    """One row of the store, decoded."""

    run_id: str
    experiment: str
    driver: str
    params: Dict[str, Any]
    seed: Optional[int]
    status: str
    attempts: int
    not_before: float
    scalars: Dict[str, float]
    checks: Dict[str, Dict[str, Any]]
    metrics: Optional[List[Dict[str, Any]]]
    error: Optional[str]
    wall_time_s: Optional[float]
    git_sha: Optional[str]
    package_version: Optional[str]
    calibration_hash: Optional[str]
    worker: Optional[str]
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]

    def point(self) -> GridPoint:
        return GridPoint(
            experiment=self.experiment,
            driver=self.driver,
            params=self.params,
            seed=self.seed,
        )

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "RunRecord":
        return cls(
            run_id=row["run_id"],
            experiment=row["experiment"],
            driver=row["driver"],
            params=json.loads(row["params"]),
            seed=row["seed"],
            status=row["status"],
            attempts=row["attempts"],
            not_before=row["not_before"],
            scalars=json.loads(row["scalars"]) if row["scalars"] else {},
            checks=json.loads(row["checks"]) if row["checks"] else {},
            metrics=json.loads(row["metrics"]) if row["metrics"] else None,
            error=row["error"],
            wall_time_s=row["wall_time_s"],
            git_sha=row["git_sha"],
            package_version=row["package_version"],
            calibration_hash=row["calibration_hash"],
            worker=row["worker"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
        )


class RunStore:
    """Open (creating if needed) the run database at ``path``.

    Each :class:`RunStore` owns one connection; every process must make
    its own instance (sqlite connections do not survive ``fork``).
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Add columns newer code expects to databases older code created.

        ``run_id`` content hashes make rows portable across versions, so
        an old store must keep working; additive ALTERs are the whole
        migration story (absent values read back as NULL).
        """
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        if "metrics" not in columns:
            with self._conn:
                self._conn.execute("ALTER TABLE runs ADD COLUMN metrics TEXT")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------- syncing
    def sync_grid(self, grid: ExperimentGrid) -> Tuple[int, int]:
        """Insert the grid's points as ``pending`` rows.

        Existing rows (same content hash) are left untouched whatever
        their status — a ``done`` row is a cache hit, a ``pending`` or
        ``error`` row keeps its history.  Returns ``(new, existing)``.
        """
        points = grid.expand()
        new = 0
        with self._conn:
            for point in points:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO runs "
                    "(run_id, experiment, driver, params, seed, status, created_at) "
                    "VALUES (?, ?, ?, ?, ?, 'pending', ?)",
                    (
                        point.run_id,
                        point.experiment,
                        point.driver,
                        canonical_json(dict(point.params)),
                        point.seed,
                        time.time(),
                    ),
                )
                new += cursor.rowcount
        return new, len(points) - new

    # ------------------------------------------------------------ claiming
    def claim(
        self, worker: str, experiments: Optional[Iterable[str]] = None
    ) -> Optional[RunRecord]:
        """Atomically move one eligible ``pending`` row to ``running``.

        Eligible means ``not_before`` has passed (retry backoff).  At
        most one concurrent worker can win a given row; returns ``None``
        when nothing is claimable right now.
        """
        names = list(experiments) if experiments else None
        filter_sql, filter_args = self._experiment_filter(names)
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(
                "SELECT run_id FROM runs WHERE status='pending' AND not_before<=? "
                + filter_sql
                + " ORDER BY created_at, run_id LIMIT 1",
                (time.time(), *filter_args),
            ).fetchone()
            if row is None:
                self._conn.execute("ROLLBACK")
                return None
            self._conn.execute(
                "UPDATE runs SET status='running', worker=?, attempts=attempts+1, "
                "started_at=?, error=NULL WHERE run_id=?",
                (worker, time.time(), row["run_id"]),
            )
            self._conn.execute("COMMIT")
        except sqlite3.OperationalError:
            # the BEGIN IMMEDIATE lost a lock race; treat as nothing to do
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.OperationalError:
                pass
            return None
        return self.get(row["run_id"])

    @staticmethod
    def _experiment_filter(
        names: Optional[List[str]],
    ) -> Tuple[str, Tuple[Any, ...]]:
        if not names:
            return "", ()
        placeholders = ",".join("?" for _ in names)
        return f" AND experiment IN ({placeholders})", tuple(names)

    # ----------------------------------------------------------- finishing
    def finish(
        self,
        run_id: str,
        result: PointResult,
        wall_time_s: float,
        provenance: Dict[str, Any],
    ) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE runs SET status='done', scalars=?, checks=?, "
                "metrics=?, wall_time_s=?, git_sha=?, package_version=?, "
                "calibration_hash=?, finished_at=?, error=NULL "
                "WHERE run_id=?",
                (
                    canonical_json(result.scalars),
                    canonical_json(result.checks),
                    canonical_json(result.metrics)
                    if result.metrics is not None
                    else None,
                    wall_time_s,
                    provenance.get("git_sha"),
                    provenance.get("package_version"),
                    provenance.get("calibration_hash"),
                    time.time(),
                    run_id,
                ),
            )

    def fail(
        self,
        run_id: str,
        error: str,
        retry_not_before: Optional[float] = None,
        wall_time_s: Optional[float] = None,
    ) -> None:
        """Record a failure: back to ``pending`` for retry, else ``error``."""
        status = "pending" if retry_not_before is not None else "error"
        with self._conn:
            self._conn.execute(
                "UPDATE runs SET status=?, error=?, not_before=?, "
                "wall_time_s=?, finished_at=? WHERE run_id=?",
                (
                    status,
                    error[:4000],
                    retry_not_before if retry_not_before is not None else 0,
                    wall_time_s,
                    time.time(),
                    run_id,
                ),
            )

    # ------------------------------------------------------------ resetting
    def _reset(
        self, status: str, clear: str, experiments: Optional[Iterable[str]]
    ) -> int:
        """Send every ``status`` row back to ``pending``, claimable now."""
        filter_sql, filter_args = self._experiment_filter(
            list(experiments) if experiments else None
        )
        with self._conn:
            cursor = self._conn.execute(
                f"UPDATE runs SET status='pending', not_before=0, {clear} "
                "WHERE status=?" + filter_sql,
                (status, *filter_args),
            )
        return cursor.rowcount

    def reset_running(self, experiments: Optional[Iterable[str]] = None) -> int:
        """Reclaim rows left ``running`` by a dead worker or a killed
        pool (crash resume); the attempt they were on stays charged."""
        return self._reset("running", "worker=NULL", experiments)

    def reset_errors(self, experiments: Optional[Iterable[str]] = None) -> int:
        """``lab retry``: make every ``error`` row claimable again."""
        return self._reset("error", "attempts=0", experiments)

    # ------------------------------------------------------------- querying
    def get(self, run_id: str) -> Optional[RunRecord]:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        return RunRecord.from_row(row) if row else None

    def records(
        self,
        experiment: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[RunRecord]:
        sql = "SELECT * FROM runs WHERE 1=1"
        args: List[Any] = []
        if experiment is not None:
            sql += " AND experiment=?"
            args.append(experiment)
        if status is not None:
            sql += " AND status=?"
            args.append(status)
        sql += " ORDER BY experiment, created_at, run_id"
        return [RunRecord.from_row(row) for row in self._conn.execute(sql, args)]

    def counts(
        self, experiments: Optional[Iterable[str]] = None
    ) -> Dict[str, Dict[str, int]]:
        """``experiment -> {status -> count}`` (zero-filled statuses)."""
        filter_sql, filter_args = self._experiment_filter(
            list(experiments) if experiments else None
        )
        result: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(
            "SELECT experiment, status, COUNT(*) AS n FROM runs WHERE 1=1"
            + filter_sql
            + " GROUP BY experiment, status",
            filter_args,
        ):
            per = result.setdefault(
                row["experiment"], {status: 0 for status in STATUSES}
            )
            per[row["status"]] = row["n"]
        return result

    def totals(self, experiments: Optional[Iterable[str]] = None) -> Dict[str, int]:
        totals = {status: 0 for status in STATUSES}
        for per in self.counts(experiments).values():
            for status, count in per.items():
                totals[status] += count
        return totals

    def mean_wall_time(
        self, experiments: Optional[Iterable[str]] = None
    ) -> Optional[float]:
        filter_sql, filter_args = self._experiment_filter(
            list(experiments) if experiments else None
        )
        row = self._conn.execute(
            "SELECT AVG(wall_time_s) AS mean FROM runs "
            "WHERE status='done' AND wall_time_s IS NOT NULL" + filter_sql,
            filter_args,
        ).fetchone()
        return row["mean"]
