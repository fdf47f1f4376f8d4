"""Export a grid's run rows as CSV or aligned Markdown.

Both exports use one flattened view of the store: a row per run, with
the union of parameter names and scalar names as columns, plus status,
wall time and the provenance fields.  The Markdown renderer reuses the
reporting layer's column alignment so exported tables match the look of
the per-exhibit report.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.reporting import render_csv, render_markdown_table, render_table
from .store import RunRecord, RunStore

#: Trailing bookkeeping columns, in export order.
_META_COLUMNS = [
    "status",
    "attempts",
    "wall_time_s",
    "git_sha",
    "package_version",
    "calibration_hash",
    "error",
]


def _flatten(
    records: Sequence[RunRecord],
) -> Tuple[List[str], List[List[Any]]]:
    """``(columns, rows)`` for a set of run records."""
    param_names = sorted({name for r in records for name in r.params})
    scalar_names = sorted({name for r in records for name in r.scalars})
    columns = (
        ["run_id", "experiment", "seed"]
        + param_names
        + scalar_names
        + _META_COLUMNS
    )
    rows: List[List[Any]] = []
    for record in records:
        row: List[Any] = [
            record.run_id,
            record.experiment,
            record.seed if record.seed is not None else "",
        ]
        row += [record.params.get(name, "") for name in param_names]
        row += [record.scalars.get(name, "") for name in scalar_names]
        sha = (record.git_sha or "")[:12]
        row += [
            record.status,
            record.attempts,
            round(record.wall_time_s, 3) if record.wall_time_s is not None else "",
            sha,
            record.package_version or "",
            record.calibration_hash or "",
            (record.error or "").splitlines()[0][:80] if record.error else "",
        ]
        rows.append(row)
    return columns, rows


def export_csv(
    store: RunStore,
    experiment: Optional[str] = None,
    status: Optional[str] = None,
) -> str:
    """The flattened view as CSV text."""
    return render_csv(*_flatten(store.records(experiment=experiment, status=status)))


def export_markdown(
    store: RunStore,
    experiment: Optional[str] = None,
    status: Optional[str] = None,
) -> str:
    """The flattened view as an aligned GitHub-Markdown table."""
    columns, rows = _flatten(store.records(experiment=experiment, status=status))
    return render_markdown_table(columns, rows)


def export_text(
    store: RunStore,
    experiment: Optional[str] = None,
    status: Optional[str] = None,
) -> str:
    """The flattened view as the report-style aligned plain-text table."""
    columns, rows = _flatten(store.records(experiment=experiment, status=status))
    return render_table(columns, rows)


def status_table(store: RunStore) -> str:
    """Per-experiment per-state counts, the ``lab status`` body."""
    counts = store.counts()
    columns = ["experiment", "pending", "running", "done", "error", "total"]
    rows = []
    for experiment in sorted(counts):
        per: Dict[str, int] = counts[experiment]
        rows.append(
            [
                experiment,
                per["pending"],
                per["running"],
                per["done"],
                per["error"],
                sum(per.values()),
            ]
        )
    if len(rows) > 1:
        totals = store.totals()
        rows.append(
            ["TOTAL", totals["pending"], totals["running"], totals["done"],
             totals["error"], sum(totals.values())]
        )
    return render_table(columns, rows)
