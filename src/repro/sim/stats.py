"""Measurement utilities: counters, rate meters and latency histograms.

Every experiment reports either a rate (requests/s, events/s, Gbps) or a
latency percentile (Fig 12's median and p99), so these three classes are
the backbone of the whole evaluation harness.
"""

from __future__ import annotations

import math
from typing import Dict, List


class Counters:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self._values!r})"


class RateMeter:
    """Converts an event count over simulated time into a rate.

    Rates are reported against *simulated* time (picoseconds from the
    model's own clock), never wall-clock time, because the simulator's speed is
    irrelevant to the modelled hardware's throughput.
    """

    def __init__(self, name: str = "rate") -> None:
        self.name = name
        self.count = 0
        self.units = 0.0  # e.g. bytes, for throughput meters

    def record(self, units: float = 1.0) -> None:
        self.count += 1
        self.units += units

    def per_second(self, elapsed_ps: float) -> float:
        """Events per simulated second.

        A zero (or negative, or non-finite) measurement window has no
        meaningful rate; it reports 0.0 rather than raising or returning
        inf, so aggregation over many windows never blows up.
        """
        if not elapsed_ps > 0 or math.isinf(elapsed_ps):
            return 0.0
        return self.count / (elapsed_ps / 1e12)

    def units_per_second(self, elapsed_ps: float) -> float:
        if not elapsed_ps > 0 or math.isinf(elapsed_ps):
            return 0.0
        return self.units / (elapsed_ps / 1e12)

    def gbps(self, elapsed_ps: float) -> float:
        """Throughput in gigabits per second, treating units as bytes."""
        return self.units_per_second(elapsed_ps) * 8 / 1e9


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
