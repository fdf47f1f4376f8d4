"""CPU cycle accounting: cores, frequency, and per-category budgets.

The paper's headline claims are about CPU cycles — F4T saves 64% of them
and hands 2.8x more to the application (§5.2) — so the host model
tracks cycles per category (app / tcp / kernel / f4t-lib / idle) and
converts per-request cycle costs into achievable request rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict

from .calibration import HOST_CPU_FREQ_HZ


@dataclass
class CpuModel:
    """A pool of identical cores."""

    cores: int = 1
    freq_hz: ClassVar[float] = HOST_CPU_FREQ_HZ

    @property
    def cycles_per_second(self) -> float:
        return self.cores * self.freq_hz

    def rate_for(self, cycles_per_request: float) -> float:
        """Requests/s this pool sustains at the given per-request cost."""
        if cycles_per_request <= 0:
            raise ValueError("cycles per request must be positive")
        return self.cycles_per_second / cycles_per_request


@dataclass
class CycleAccount:
    """Cycle consumption by category, for the Fig 1a/Fig 11 breakdowns."""

    categories: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, cycles: float) -> None:
        self.categories[category] = self.categories.get(category, 0.0) + cycles

    def total(self) -> float:
        return sum(self.categories.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total()
        if total == 0:
            return {}
        return {name: value / total for name, value in self.categories.items()}

    def fraction(self, category: str) -> float:
        total = self.total()
        return 0.0 if total == 0 else self.categories.get(category, 0.0) / total
