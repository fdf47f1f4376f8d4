"""Knee detection for latency-vs-load curves.

Sweeping ``load_scale`` over a scenario and plotting a latency
percentile against achieved load is *the* canonical transport-stack
exhibit (F4T Fig. 11 style): flat at low load, a knee where queueing
takes over, then a wall.  The sweep itself is the ``traffic-load`` grid
(:mod:`repro.lab.grids`), which ``python -m repro traffic sweep`` runs;
:func:`detect_knee` finds the knee in its rows with the kneedle
max-distance-from-chord rule.
"""

from __future__ import annotations

from typing import Optional, Sequence


def detect_knee(
    xs: Sequence[float],
    ys: Sequence[float],
    min_rise: float = 0.05,
    min_total_rise: float = 1.0,
) -> Optional[int]:
    """Kneedle-style knee: the point farthest below the first-last chord.

    A latency-vs-load curve is convex increasing — flat, then a wall —
    so after normalizing both axes to [0, 1] the knee is the sample with
    the maximum vertical distance *below* the straight line joining the
    curve's endpoints.  Returns None for degenerate or near-linear
    curves (max distance < ``min_rise``), and for curves that never
    leave the flat region (total rise below ``min_total_rise`` as a
    fraction of the low-load latency) — normalizing a flat curve would
    only amplify measurement noise into a fake knee.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must be the same length")
    if len(xs) < 3:
        return None
    x0, x1 = xs[0], xs[-1]
    y0, y1 = min(ys), max(ys)
    if x1 <= x0 or y1 <= y0:
        return None
    if y1 - y0 < min_total_rise * y0:
        return None
    best_index, best_distance = None, min_rise
    for i in range(1, len(xs) - 1):
        nx = (xs[i] - x0) / (x1 - x0)
        ny = (ys[i] - y0) / (y1 - y0)
        chord = (ys[0] - y0) / (y1 - y0) + nx * (ys[-1] - ys[0]) / (y1 - y0)
        distance = chord - ny
        if distance > best_distance:
            best_index, best_distance = i, distance
    return best_index
