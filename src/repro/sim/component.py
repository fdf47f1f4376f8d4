"""Base class for clocked hardware components.

Every block of FtEngine (event handler, TCB manager, FPU, scheduler, ...)
is modelled as a :class:`Component`.  Whoever owns a component calls
:meth:`Component.tick` on the clock cycles that concern it:
``Testbed.run`` ticks the two engines, ``FtEngine.tick`` ticks its
blocks in dataflow order (so single-phase simulation is deterministic).

There is one clock per owner.  A component built with a ``clock`` — its
owner, anything with a ``cycle`` — reads ``clock.cycle`` and never
counts: only the owner adds to it.  A component built without one
stands alone, is its own clock, and counts the ticks it is given.

Simulated time has one type: integer picoseconds, from the wire through
the TCP core to the arrival schedule (an engine cycle is exactly
``ENGINE_PERIOD_PS``).  Seconds exist only at the edges users call:
durations given in are converted once by :func:`seconds_to_ps`, and
reported results are ``time_ps / 1e12``.
"""

from __future__ import annotations

from typing import Any, Optional

#: A work horizon meaning "nothing scheduled": later than any cycle.
NEVER = 1 << 62


def seconds_to_ps(seconds: float) -> int:
    """A time given in seconds at a user-facing edge (a run's time
    bound, a scenario's horizon) as the nearest whole picosecond."""
    return round(seconds * 1e12)


class OwnersCycle:
    """``cycle = OwnersCycle()`` in a block's class: built with a clock,
    the block's ``cycle`` is its owner's (hot paths read
    ``self.clock.cycle``, the same integer one call nearer).  Stand-alone
    it keeps a count, which, an instance attribute, is found first."""

    def __get__(self, component: Any, owner: Any = None) -> Any:
        return self if component is None else component.clock.cycle


class _ItsOwn:
    """``Component.clock`` until an owner's is stored over it: the
    component itself — worked out, not stored, because a model that
    referred to itself would outlive its last user until the cycle
    collector ran (64K DRAM-resident TCBs, in Fig 13's case)."""

    def __get__(self, component: Any, owner: Any = None) -> Any:
        return self if component is None else component


class Component:
    """A clocked component with a per-cycle ``tick`` callback.

    Subclasses override :meth:`tick` to do one cycle of work, reading
    the time as ``self.clock.cycle``.

    A component may also publish a ``next_action`` cycle: the first
    cycle on which its :meth:`tick` changes anything (:data:`NEVER`
    while idle), kept current wherever the state behind it changes.
    A tick before that cycle is a no-op, so the owner compares an
    integer instead of calling; a value the clock has already passed
    means the next tick (ARCHITECTURE.md, "Where time lives", lists who
    publishes what).
    """

    clock = _ItsOwn()

    def __init__(self, name: str, clock: Optional[Any] = None) -> None:
        self.name = name
        if clock is None:
            self.cycle = 0
        else:
            self.clock = clock

    def tick(self) -> None:
        """Advance one clock cycle.  Subclasses do their work here."""
        if self.clock is self:
            self.cycle += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} cycle={self.clock.cycle}>"
