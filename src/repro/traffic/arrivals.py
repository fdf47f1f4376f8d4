"""Arrival processes: when the load generator issues requests.

Closed-loop drivers (the paper's exhibits) only ever ask the questions
the server can answer at its own pace; open-loop arrival processes are
what expose queueing, burst absorption and overload behaviour — the
FlexTOE/Laminar-style evaluation this layer adds.  Every process turns a
seeded :class:`random.Random` into a concrete list of arrival instants
over a horizon, so a scenario's offered load is exactly replayable.
The draws are float seconds; each instant is rounded once, as it is
generated, to the integer picoseconds the simulator runs on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import List


def _instant_ps(t: float) -> int:
    """An arrival drawn at ``t`` seconds: the first whole ps at or after it."""
    return math.ceil(t * 1e12)


class ArrivalProcess:
    """Generates request arrival instants, in ps, for ``[0, duration_s)``."""

    def times(self, rng: random.Random, duration_s: float) -> List[int]:
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process with every rate multiplied by ``factor``
        (above zero: see :func:`_factor`)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


def _factor(factor: float) -> float:
    """A rate multiplier, checked: zero divides by zero, and a negative
    rate gives negative gaps that never reach a schedule's horizon."""
    if not factor > 0:
        raise ValueError(f"a rate scale must be above zero, got {factor!r}")
    return factor


@dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps."""

    rate: float

    def times(self, rng: random.Random, duration_s: float) -> List[int]:
        times: List[int] = []
        t = rng.expovariate(self.rate)
        while t < duration_s:
            times.append(_instant_ps(t))
            t += rng.expovariate(self.rate)
        return times

    def scaled(self, factor: float) -> "Poisson":
        return replace(self, rate=self.rate * _factor(factor))

    def describe(self) -> str:
        return f"poisson({self.rate:.3g}/s)"


@dataclass(frozen=True)
class OnOffBursts(ArrivalProcess):
    """MMPP-2 on/off bursts: Poisson at ``burst_rate`` during ON dwells.

    The classic two-state Markov-modulated Poisson process datacenter
    traces motivate: exponentially distributed ON and OFF dwell times,
    with arrivals only (or mostly) during ON.  Same mean load as a plain
    Poisson process at the dwell-weighted rate, but the arrivals clump — the
    pattern that stresses coalesce FIFOs and accept queues.
    """

    burst_rate: float
    mean_on_s: float
    mean_off_s: float
    #: Background rate during OFF dwells (0 = pure on/off).
    idle_rate: float = 0.0

    def times(self, rng: random.Random, duration_s: float) -> List[int]:
        times: List[int] = []
        t = 0.0
        on = rng.random() < self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        while t < duration_s:
            dwell = rng.expovariate(
                1.0 / (self.mean_on_s if on else self.mean_off_s)
            )
            end = min(t + dwell, duration_s)
            rate = self.burst_rate if on else self.idle_rate
            if rate > 0:
                arrival = t + rng.expovariate(rate)
                while arrival < end:
                    times.append(_instant_ps(arrival))
                    arrival += rng.expovariate(rate)
            t = end
            on = not on
        return times

    def scaled(self, factor: float) -> "OnOffBursts":
        factor = _factor(factor)
        return replace(
            self,
            burst_rate=self.burst_rate * factor,
            idle_rate=self.idle_rate * factor,
        )

    def describe(self) -> str:
        return (
            f"on-off(burst={self.burst_rate:.3g}/s, "
            f"on={self.mean_on_s * 1e6:.3g}us, off={self.mean_off_s * 1e6:.3g}us)"
        )


@dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """A Poisson base load with a mid-run triangular rate ramp.

    The rate climbs linearly from ``base_rate`` to ``peak_multiplier x
    base_rate`` over the first half of ``[ramp_start_s, ramp_start_s +
    ramp_duration_s]`` and back down over the second half — a flash
    crowd hitting and receding.  Sampled by thinning an envelope Poisson
    process at the peak rate, so it stays exactly replayable.
    """

    base_rate: float
    peak_multiplier: float
    ramp_start_s: float
    ramp_duration_s: float

    def rate_at(self, t: float) -> float:
        start, width = self.ramp_start_s, self.ramp_duration_s
        if width <= 0 or not (start <= t < start + width):
            return self.base_rate
        half = width / 2.0
        ascent = (t - start) / half if t < start + half else (start + width - t) / half
        return self.base_rate * (1.0 + (self.peak_multiplier - 1.0) * ascent)

    def times(self, rng: random.Random, duration_s: float) -> List[int]:
        envelope = self.base_rate * max(1.0, self.peak_multiplier)
        times: List[int] = []
        t = rng.expovariate(envelope)
        while t < duration_s:
            if rng.random() < self.rate_at(t) / envelope:
                times.append(_instant_ps(t))
            t += rng.expovariate(envelope)
        return times

    def scaled(self, factor: float) -> "FlashCrowd":
        return replace(self, base_rate=self.base_rate * _factor(factor))

    def describe(self) -> str:
        return (
            f"flash-crowd(base={self.base_rate:.3g}/s, "
            f"peak={self.peak_multiplier:g}x @ "
            f"{self.ramp_start_s * 1e6:.3g}+{self.ramp_duration_s * 1e6:.3g}us)"
        )
