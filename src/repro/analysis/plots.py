"""ASCII plotting for the exhibit report: printed after each exhibit that
has an entry in :data:`EXHIBIT_PLOTS`.

Terminal-renderable line plots and bar charts so the report can show the
*shapes* the paper's figures show — crossovers, plateaus, sawtooth decay
— without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .reporting import ExperimentResult

Point = Tuple[float, float]
MARKERS = "*o+x#@%&"
#: Canvas of a line plot and the longest bar of a bar chart, in characters.
PLOT_WIDTH, PLOT_HEIGHT = 64, 16
BAR_WIDTH = 50


def _scale(value: float, low: float, high: float, steps: int) -> int:
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(steps - 1, max(0, round(position * (steps - 1))))


def line_plot(
    series: Dict[str, List[Point]],
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more (x, y) series on a shared ASCII canvas."""
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("nothing to plot")

    def tx(x: float) -> float:
        return math.log10(x) if logx else x

    def ty(y: float) -> float:
        return math.log10(y) if logy else y

    xs = [tx(x) for x, _ in points]
    ys = [ty(y) for _, y in points if not logy or y > 0]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        previous: Optional[Tuple[int, int]] = None
        for x, y in pts:
            if logy and y <= 0:
                continue
            col = _scale(tx(x), x_low, x_high, width)
            row = height - 1 - _scale(ty(y), y_low, y_high, height)
            if previous is not None:
                # Sparse linear interpolation between consecutive points.
                pcol, prow = previous
                steps = max(abs(col - pcol), abs(row - prow))
                for step in range(1, steps):
                    icol = pcol + (col - pcol) * step // max(1, steps)
                    irow = prow + (row - prow) * step // max(1, steps)
                    if canvas[irow][icol] == " ":
                        canvas[irow][icol] = "."
            canvas[row][col] = marker
            previous = (col, row)

    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    top = f"{y_high:.3g}" if not logy else f"1e{y_high:.1f}"
    bottom = f"{y_low:.3g}" if not logy else f"1e{y_low:.1f}"
    lines.append(f"{top:>10} +" + "-" * width)
    for row in canvas:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{bottom:>10} +" + "-" * width)
    left = f"1e{x_low:.1f}" if logx else f"{x_low:.3g}"
    right = f"1e{x_high:.1f}" if logx else f"{x_high:.3g}"
    axis = f"{left}  {x_label}  {right}".center(width)
    lines.append(" " * 12 + axis)
    if y_label:
        lines.append(" " * 12 + f"(y: {y_label})")
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
) -> str:
    """Horizontal ASCII bars, scaled to the largest value."""
    if not labels or len(labels) != len(values):
        raise ValueError("labels and values must align and be non-empty")
    peak = max(values) or 1.0
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * BAR_WIDTH))
        lines.append(f"{str(label):>{label_width}} | {bar} {value:.3g}")
    return "\n".join(lines)


# ------------------------------------------------------ per-exhibit plots
def plot_figure2(result: ExperimentResult) -> str:
    series = {
        "w-RMW": [(row[0], row[1]) for row in result.rows],
        "w/o-RMW": [(row[0], row[2]) for row in result.rows],
    }
    return line_plot(
        series, logx=True, logy=True,
        title="Fig 2: bulk throughput vs request size (Gbps)",
        x_label="request bytes (log)", y_label="Gbps (log)",
    )


def plot_figure8(result: ExperimentResult) -> str:
    series: Dict[str, List[Point]] = {}
    for row in result.rows:
        pattern, size, cores, linux, f4t = row[0], row[1], row[2], row[3], row[4]
        if size != 128:
            continue
        series.setdefault(f"F4T {pattern}", []).append((cores, f4t))
        series.setdefault(f"Linux {pattern}", []).append((cores, linux))
    return line_plot(
        series,
        title="Fig 8: 128B throughput vs cores (Gbps)",
        x_label="CPU cores", y_label="Gbps",
    )


def plot_figure13(result: ExperimentResult) -> str:
    series = {
        "Linux": [(row[0], row[1]) for row in result.rows],
        "F4T-DRAM": [(row[0], row[2]) for row in result.rows],
        "F4T-HBM": [(row[0], row[3]) for row in result.rows],
    }
    return line_plot(
        series, logx=True,
        title="Fig 13: echo rate vs flows (Mrps)",
        x_label="concurrent flows (log)", y_label="Mrps",
    )


def plot_figure15(result: ExperimentResult) -> str:
    series = {
        "Baseline": [(row[0], row[1]) for row in result.rows],
        "F4T": [(row[0], row[2]) for row in result.rows],
    }
    return line_plot(
        series,
        title="Fig 15: event rate vs FPU latency (Mev/s)",
        x_label="FPU latency (cycles)", y_label="M events/s",
    )


def plot_figure11(result: ExperimentResult) -> str:
    labels = [f"{row[0]}:{row[1]}" for row in result.rows]
    values = [row[2] for row in result.rows]
    return bar_chart(labels, values, title="Fig 11: CPU cycle fractions")


#: Exhibits with a dedicated plot renderer.
EXHIBIT_PLOTS = {
    "figure2": plot_figure2,
    "figure8": plot_figure8,
    "figure11": plot_figure11,
    "figure13": plot_figure13,
    "figure15": plot_figure15,
}
