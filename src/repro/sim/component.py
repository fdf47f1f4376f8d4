"""Base class for clocked hardware components.

Every block of FtEngine (event handler, TCB manager, FPU, scheduler, ...)
is modelled as a :class:`Component` attached to a clock domain.  The
simulation kernel calls :meth:`Component.tick` once per cycle of that
domain, in the registration order (which callers arrange to follow the
dataflow direction so that single-phase simulation is deterministic).
"""

from __future__ import annotations


class Component:
    """A clocked component with a per-cycle ``tick`` callback.

    Subclasses override :meth:`tick` to do one cycle of work and
    :meth:`busy` to report whether they still hold in-flight state.  The
    kernel uses ``busy`` two ways:

    * **idle-skip** — when every component of a domain is idle, whole
      stretches of cycles are skipped without simulating them;
    * **parking** — a component whose ``busy()`` goes False after a tick
      is removed from the tick list entirely (the busy-set) and not
      ticked again until woken, either explicitly via
      ``Simulator.wake`` or implicitly when the kernel skips to a
      scheduled wakeup.  On wake its ``cycle`` counter is
      fast-forwarded to the domain's, so cycle-relative logic stays
      aligned.  A producer that fills a parked peer's queue must wake
      it (or the peer must stay ``busy`` while anything can arrive) —
      the default always-busy ``busy()`` opts out of both mechanisms.
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
