"""Latency histograms: percentile queries over recorded samples.

Every latency an experiment reports (Fig 12's median and p99) is read
off a :class:`Histogram`.
"""

from __future__ import annotations

import math
from typing import Iterable, List


class Histogram:
    """Sample store with percentile queries (median, p99, ...)."""

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        """Record every value of ``values`` (one call for a whole run)."""
        self._samples.extend(values)
        self._sorted = False

    @property
    def samples(self) -> List[float]:
        """The raw samples, sorted (for merging histograms)."""
        self._ensure_sorted()
        return list(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100].

        An empty histogram has no percentiles: the answer is ``nan``
        (the value every report renders as "no data"), not an exception
        — a run where one traffic class saw zero completions must still
        produce a result table.  Out-of-range ``p`` is still a bug in
        the caller and raises.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return math.nan
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = p / 100 * (len(self._samples) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return self._samples[low]
        frac = rank - low
        return self._samples[low] * (1 - frac) + self._samples[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        if not self._samples:
            return math.nan
        return max(self._samples)
