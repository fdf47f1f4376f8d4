"""Base class for clocked hardware components.

Every block of FtEngine (event handler, TCB manager, FPU, scheduler, ...)
is modelled as a :class:`Component`.  Whoever owns a component calls
:meth:`Component.tick` once per clock cycle: ``Testbed.run`` ticks the
two engines, ``FtEngine.tick`` ticks its blocks in dataflow order (so
single-phase simulation is deterministic).
"""

from __future__ import annotations

#: A work horizon meaning "nothing scheduled": later than any cycle.
NEVER = 1 << 62


class TickCounter:
    """A cycle count several components read as their ``cycle``.

    Blocks that their owner always moves together hold the same value;
    keeping it once makes advancing all of them one addition.
    """

    __slots__ = ("cycle",)

    def __init__(self) -> None:
        self.cycle = 0


class Component:
    """A clocked component with a per-cycle ``tick`` callback.

    Subclasses override :meth:`tick` to do one cycle of work and
    :meth:`busy` to report whether they still hold in-flight state.
    The owning loop reads ``busy`` to idle-skip: when every component
    it ticks is idle, whole stretches of cycles are jumped over without
    simulating them, so a component must stay ``busy`` while anything
    it holds can still act.

    A component may also publish a ``next_action`` cycle: the first
    cycle on which its :meth:`tick` changes anything (:data:`NEVER`
    while idle), kept current wherever the state behind it changes.
    Every tick before that cycle only counts, so the owner compares an
    integer and adds to ``cycle`` instead of calling (ARCHITECTURE.md,
    "Where time lives", lists who publishes what).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycle = 0

    def tick(self) -> None:
        """Advance one clock cycle.  Subclasses do their work here."""
        self.cycle += 1

    def busy(self) -> bool:
        """Return True while the component holds in-flight work.

        The default is conservative (never idle-skippable); cheap
        components that can be skipped override this.
        """
        return True

    def reset(self) -> None:
        """Return to the post-construction state."""
        self.cycle = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} cycle={self.cycle}>"
