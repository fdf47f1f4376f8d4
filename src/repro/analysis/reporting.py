"""Rendering of experiment results: aligned tables, paper-vs-measured rows.

Every experiment driver returns an :class:`ExperimentResult`; the bench
harness prints it through :func:`render`, producing the same rows/series
the paper's exhibit reports plus a paper-vs-measured annotation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """One exhibit's reproduction output."""

    exhibit: str  # e.g. "Figure 8a"
    title: str
    columns: List[str]
    rows: List[Sequence[Any]]
    #: "simulated" | "functional" | "calibrated" | mixtures
    method: str = "simulated"
    notes: List[str] = field(default_factory=list)
    #: Named scalar comparisons: name -> (paper value, measured value).
    checks: Dict[str, "PaperCheck"] = field(default_factory=dict)

    def check(self, name: str, paper: float, measured: float, tolerance: float = 0.35) -> None:
        self.checks[name] = PaperCheck(paper, measured, tolerance)

    def all_checks_pass(self) -> bool:
        return all(check.passes for check in self.checks.values())


@dataclass
class PaperCheck:
    """A paper-reported scalar vs our measured value."""

    paper: float
    measured: float
    #: Allowed relative deviation; shapes/ratios, not absolutes.
    tolerance: float = 0.35

    @property
    def ratio(self) -> float:
        if self.paper == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.paper

    @property
    def passes(self) -> bool:
        return abs(self.ratio - 1.0) <= self.tolerance


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def _column_widths(
    columns: Sequence[str], cells: Sequence[Sequence[str]]
) -> List[int]:
    return [
        max(len(str(column)), *(len(row[i]) for row in cells)) if cells else len(str(column))
        for i, column in enumerate(columns)
    ]


def render_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[format_value(v) for v in row] for row in rows]
    widths = _column_widths(columns, cells)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in cells)
    return "\n".join([header, sep, body]) if cells else "\n".join([header, sep])


def render_markdown_table(
    columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """The same aligned table as :func:`render_table`, as GitHub Markdown."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = _column_widths(columns, cells)

    def line(values: Sequence[str]) -> str:
        return "| " + " | ".join(v.ljust(w) for v, w in zip(values, widths)) + " |"

    out = [line([str(c) for c in columns]), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def tabulate(
    records: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None
) -> Tuple[List[str], List[List[Any]]]:
    """``(columns, rows)`` for the renderers from one mapping per row.

    ``columns`` defaults to the union of the records' keys in first-seen
    order; a record without a column gets a blank cell, so rows of
    different shapes (one- and two-level cache geometries) share a table.
    """
    if columns is None:
        columns = list(dict.fromkeys(key for record in records for key in record))
    return list(columns), [[r.get(c, "") for c in columns] for r in records]


def render_csv(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The result-table CSV every verb writes: floats as ``repr`` so a cell
    parses back to exactly the value on the result object."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def render(result: ExperimentResult) -> str:
    lines = [
        f"== {result.exhibit}: {result.title} [{result.method}] ==",
        render_table(result.columns, result.rows),
    ]
    for name, check in result.checks.items():
        status = "OK " if check.passes else "OFF"
        lines.append(
            f"  [{status}] {name}: paper {format_value(check.paper)}, "
            f"measured {format_value(check.measured)} "
            f"(x{check.ratio:.2f} of paper)"
        )
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
