"""Request/response size distributions: how big each transfer is.

Datacenter flow-size distributions are famously heavy-tailed — a mass
of mice and a few elephants carrying most of the bytes — and that skew,
not the mean, is what decides TCB locality and buffer pressure.  Every
distribution samples from a caller-supplied seeded RNG and rounds to
whole bytes within ``[minimum, maximum]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, List, Tuple


class SizeDistribution:
    """Samples one transfer size in bytes."""

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Fixed(SizeDistribution):
    """Every transfer is exactly ``size_bytes`` (0 = one-way stream)."""

    size_bytes: int

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes

    def describe(self) -> str:
        return f"fixed({self.size_bytes}B)"


@dataclass(frozen=True)
class Zipf(SizeDistribution):
    """Zipf-weighted sizes over log-spaced buckets between two bounds.

    Bucket ``k`` (smallest size first) is drawn with probability
    proportional to ``k^-s`` — rank-frequency skew applied to transfer
    sizes, so small requests dominate by count while the tail reaches
    ``maximum``.
    """

    s: ClassVar[float] = 1.1
    buckets: ClassVar[int] = 12
    minimum: int = 64
    maximum: int = 1 << 17
    _support: Tuple[Tuple[float, int], ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ratio = (self.maximum / self.minimum) ** (1.0 / max(1, self.buckets - 1))
        sizes = [
            min(self.maximum, int(round(self.minimum * ratio ** k)))
            for k in range(self.buckets)
        ]
        weights = [1.0 / (k + 1) ** self.s for k in range(self.buckets)]
        total = sum(weights)
        cumulative: List[Tuple[float, int]] = []
        acc = 0.0
        for size, weight in zip(sizes, weights):
            acc += weight / total
            cumulative.append((acc, size))
        object.__setattr__(self, "_support", tuple(cumulative))

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        for threshold, size in self._support:
            if u <= threshold:
                return size
        return self._support[-1][1]

    def describe(self) -> str:
        return f"zipf(s={self.s:g}, {self.minimum}-{self.maximum}B)"
