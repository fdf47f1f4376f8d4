"""Streaming frequency sketches with seeded hash families.

Three interchangeable estimators behind one duck-typed surface
(``update`` / ``estimate`` / ``heavy_hitters``):

* :class:`CountMinSketch` — d seeded rows of w counters; estimates never
  undercount, and overcount by at most ``total / w`` per row in
  expectation (Cormode & Muthukrishnan).  A small built-in top-k tracker
  makes :meth:`heavy_hitters` an O(k) read, not a table scan.
* :class:`SpaceSavingSketch` — Metwally et al.'s stream-summary: at most
  ``capacity`` monitored keys; every estimate carries its error bound,
  and any key with true count above ``total / capacity`` is guaranteed
  monitored.
* :class:`ExactOracle` — a plain dict counter.  The oracle mode the
  tests (and ``repro mem stats``) compare the sketches against.

All hashing is a seeded integer mix (no Python ``hash``, which is
salted per process), so a given (seed, stream) pair reproduces the same
estimates everywhere — the same determinism contract the rest of the
repo pins with trace fingerprints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

#: Registered sketch kinds for :func:`make_sketch`.
SKETCH_KINDS = ("countmin", "spacesaving", "exact")

_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(value: int, seed: int) -> int:
    """A seeded splitmix64 finalizer: deterministic, well-distributed."""
    x = (value ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class CountMinSketch:
    """Count-min: d rows × w counters, estimate = min over rows.

    ``track`` caps the built-in heavy-hitter tracker: the ``track``
    keys with the largest estimates seen so far, maintained inline so
    :meth:`heavy_hitters` never scans the stream or the table.
    """

    kind = "countmin"
    depth = 4
    track = 32

    def __init__(self, width: int = 1024, seed: int = 0) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.seed = seed
        self._rows: List[List[int]] = [[0] * width for _ in range(self.depth)]
        self._topk: Dict[int, int] = {}
        self.total = 0
        self.updates = 0

    def update(self, key: int, count: int = 1) -> int:
        """Add ``count`` observations of ``key``; returns the new estimate."""
        estimate: Optional[int] = None
        for row_index, row in enumerate(self._rows):
            slot = mix64(key, self.seed + row_index) % self.width
            row[slot] += count
            if estimate is None or row[slot] < estimate:
                estimate = row[slot]
        assert estimate is not None  # depth >= 1 by construction
        self.total += count
        self.updates += 1
        self._track(key, estimate)
        return estimate

    def _track(self, key: int, estimate: int) -> None:
        topk = self._topk
        if key in topk:
            topk[key] = estimate
            return
        if len(topk) < self.track:
            topk[key] = estimate
            return
        coldest = min(topk, key=lambda k: (topk[k], k))
        if estimate > topk[coldest]:
            del topk[coldest]
            topk[key] = estimate

    def estimate(self, key: int) -> int:
        return min(
            row[mix64(key, self.seed + row_index) % self.width]
            for row_index, row in enumerate(self._rows)
        )

    def heavy_hitters(self, k: int = 8) -> List[Tuple[int, int]]:
        """Top-k (key, estimate) pairs from the inline tracker; O(k·track)."""
        ranked = sorted(
            self._topk.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]


class SpaceSavingSketch:
    """Space-saving stream summary: at most ``capacity`` monitored keys.

    On overflow the minimum-count key is replaced and the newcomer
    inherits its count as error (``estimate = count``, ``count - error``
    is the guaranteed lower bound).  Any key whose true frequency
    exceeds ``total / capacity`` is guaranteed to be monitored.
    """

    kind = "spacesaving"

    def __init__(self, capacity: int = 256, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed  # unused (exact keys), kept for a uniform surface
        self._counts: Dict[int, int] = {}
        self._errors: Dict[int, int] = {}
        self.total = 0
        self.updates = 0
        self.replacements = 0

    def update(self, key: int, count: int = 1) -> int:
        self.total += count
        self.updates += 1
        counts = self._counts
        if key in counts:
            counts[key] += count
            return counts[key]
        if len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            return count
        victim = min(counts, key=lambda k: (counts[k], k))
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[key] = floor + count
        self._errors[key] = floor
        self.replacements += 1
        return counts[key]

    def estimate(self, key: int) -> int:
        return self._counts.get(key, 0)

    def heavy_hitters(self, k: int = 8) -> List[Tuple[int, int]]:
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]


class ExactOracle:
    """Exact per-key counters — the accuracy baseline, O(keys) memory."""

    kind = "exact"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed  # unused, uniform surface
        self._counts: Dict[int, int] = {}
        self.total = 0
        self.updates = 0

    def update(self, key: int, count: int = 1) -> int:
        self.total += count
        self.updates += 1
        self._counts[key] = self._counts.get(key, 0) + count
        return self._counts[key]

    def estimate(self, key: int) -> int:
        return self._counts.get(key, 0)

    def heavy_hitters(self, k: int = 8) -> List[Tuple[int, int]]:
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]


#: Any of the interchangeable frequency estimators above; they share
#: the update/estimate/heavy_hitters surface and the cache
#: hierarchy, advisor and CLI accept them interchangeably.
Sketch = Union["CountMinSketch", "SpaceSavingSketch", "ExactOracle"]


def make_sketch(kind: str, width: int = 1024, seed: int = 0) -> Sketch:
    """Build a sketch by name: ``countmin`` | ``spacesaving`` | ``exact``.

    ``width`` doubles as the space-saving capacity so one sweep axis
    (``sketch_width``) scales every kind's memory budget.
    """
    if kind == "countmin":
        return CountMinSketch(width=width, seed=seed)
    if kind == "spacesaving":
        return SpaceSavingSketch(capacity=width, seed=seed)
    if kind == "exact":
        return ExactOracle(seed=seed)
    raise KeyError(
        f"unknown sketch kind {kind!r}; available: {', '.join(SKETCH_KINDS)}"
    )


def accuracy_report(
    sketch: Sketch, oracle: ExactOracle, keys: Iterable[int], k: int = 8
) -> Dict[str, float]:
    """Compare a sketch against the exact oracle over ``keys``.

    Returns mean/max absolute estimate error and heavy-hitter recall@k —
    the numbers ``repro mem stats`` prints and the tests bound.
    """
    keys = list(keys)
    if not keys:
        return {"mean_abs_error": 0.0, "max_abs_error": 0.0, "recall_at_k": 1.0}
    errors = [abs(sketch.estimate(key) - oracle.estimate(key)) for key in keys]
    true_top = {key for key, _ in oracle.heavy_hitters(k)}
    sketch_top = {key for key, _ in sketch.heavy_hitters(k)}
    recall = len(true_top & sketch_top) / len(true_top) if true_top else 1.0
    return {
        "mean_abs_error": sum(errors) / len(errors),
        "max_abs_error": float(max(errors)),
        "recall_at_k": recall,
    }
