"""Cycle-driven simulation kernel with multiple clock domains.

FtEngine runs most logic at 250 MHz while the network-facing modules (ARP,
ICMP, packet generator, RX parser) run at 322 MHz (the Ethernet IP clock).
The kernel keeps global time in **exact integer picoseconds** and advances
whichever domain has the earliest next edge, so mixed-frequency models
stay in step.

Time contract (the part every exhibit and sweep sits on):

* Edge ``k`` of a domain lands at ``round(k * PS_PER_SECOND / freq_hz)``,
  computed with integer arithmetic from the *absolute* cycle index.  The
  per-edge rounding error is at most half a picosecond and never
  accumulates — there is no float period being summed, so the 250 MHz
  and 322 MHz domains cannot drift apart over long runs (the same
  contract simlint rule F4T006/F4T007 enforces on the rest of the tree).
* ``Simulator.time_ps`` is an ``int``.  It only ever takes edge values
  (or a scheduled wakeup landing, which the very next ``step()`` crosses
  on the first edge at or after it — a wakeup scheduled exactly *on* an
  edge fires on that edge, not one cycle later).
* Simultaneous cross-domain edges tie-break by **domain registration
  order**, deterministically.  250 MHz and 322 MHz edges really do
  coincide (every 500 ns), so this is load-bearing for replayability.

Scheduling structures:

* Edge order comes from one place: the compiled schedule table
  (:mod:`repro.sim.schedule`), rebuilt whenever a domain is added.
  ``step``, ``run_cycles``, ``run_until_time_ps`` and ``run_lockstep``
  all advance through its cursor.
* Wakeups live in a lazily-pruned min-heap: stale entries are dropped on
  every insert and every pop, so a busy run that schedules each arrival
  keeps the heap bounded by the number of still-future wakeups instead
  of growing with every call.
* Each domain keeps a busy-set: a component whose ``busy()`` goes False
  after a tick is parked and not ticked again until it is woken —
  explicitly via :meth:`Simulator.wake`, or implicitly when the kernel
  skips to a scheduled wakeup.  Components using the conservative
  default ``busy() -> True`` are never parked.

Entry points:

* ``run_cycles`` — exactly ``n`` cycles of one domain, other domains
  ticked in step.
* ``run_until`` — run until a predicate is true or every component reports
  idle, with idle-skip to the next scheduled wakeup, for runs where long
  stretches are quiet (e.g. waiting for an RTO).
* ``run_until_time_ps`` / ``run_lockstep`` — bounded time slices with an
  exact, replayable stop; ``tests/shard/test_lockstep_interop.py`` drives
  the shard barrier protocol from them.

The paper exhibits, ``Testbed.run``, ``run_fabric`` and ``CellSim`` own
their loops and do not instantiate :class:`Simulator`.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Set, Union

from .component import Component
from .schedule import ScheduleTable, compile_schedule, locate_cursor

PS_PER_SECOND = 1_000_000_000_000


class ClockDomain:
    """A clock with a frequency; owns the components ticked on its edges."""

    def __init__(self, name: str, freq_hz: float) -> None:
        if freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_hz}")
        self.name = name
        self.freq_hz = float(freq_hz)
        # Exact rational period: edge_ps(k) = round(k * _num / _den).
        ratio = Fraction(freq_hz)
        self._num = PS_PER_SECOND * ratio.denominator
        self._den = ratio.numerator
        self._half = self._den // 2
        self.cycle = 0
        self.components: List[Component] = []
        #: Components parked off the tick list because ``busy()`` went
        #: False; woken by :meth:`wake` or a wakeup skip.
        self._parked: Set[Component] = set()
        #: Tick-list cache excluding parked components, in registration
        #: order; only consulted while something is parked.
        self._active: List[Component] = []

    @property
    def period_ps(self) -> float:
        """Nominal period as a float — for display and analytic models
        only; edge times come from :meth:`edge_ps` and never accumulate
        this value."""
        return self._num / self._den

    def edge_ps(self, cycle: int) -> int:
        """Exact integer-picosecond time of this domain's ``cycle``-th edge."""
        return (cycle * self._num + self._half) // self._den

    @property
    def next_edge_ps(self) -> int:
        return self.edge_ps(self.cycle + 1)

    def last_cycle_before(self, t_ps: int) -> int:
        """Largest cycle index whose edge lands strictly before ``t_ps``.

        Landing here means the very next tick crosses the first edge at
        or after ``t_ps`` — the no-late-wakeup guarantee.
        """
        k = (t_ps * self._den) // self._num
        while self.edge_ps(k) >= t_ps:
            k -= 1
        while self.edge_ps(k + 1) < t_ps:
            k += 1
        return k

    # ------------------------------------------------------------ busy-set
    def _rebuild_active(self) -> None:
        parked = self._parked
        self._active = [c for c in self.components if c not in parked]

    def add(self, component: Component) -> None:
        self.components.append(component)
        if self._parked:
            # Registration order is preserved: the newcomer is last.
            self._active.append(component)

    def wake(self, component: Optional[Component] = None) -> None:
        """Return parked component(s) to the tick list.

        Woken components rejoin at the domain's current cycle (their own
        ``cycle`` counter is fast-forwarded), so cycle-relative logic
        stays aligned after a park.
        """
        if not self._parked:
            return
        if component is None:
            woken = list(self._parked)
        elif component in self._parked:
            woken = [component]
        else:
            return
        for c in woken:
            self._parked.discard(c)
            c.cycle = self.cycle
        self._rebuild_active()

    def tick(self) -> None:
        """Advance one cycle, ticking unparked components in order.

        A component whose ``busy()`` reports False after its tick is
        parked: it is not ticked again until woken.  Components keeping
        the conservative ``Component.busy`` default (always True) are
        never parked.
        """
        self.cycle += 1
        run = self._active if self._parked else self.components
        for component in run:
            component.tick()
        parked = False
        for component in run:
            if not component.busy():
                self._parked.add(component)
                parked = True
        if parked:
            self._rebuild_active()

    def busy(self) -> bool:
        run = self._active if self._parked else self.components
        for component in run:
            if component.busy():
                return True
        return False

    def reset(self) -> None:
        self.cycle = 0
        self._parked.clear()
        self._active = []
        for component in self.components:
            component.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mhz = self.freq_hz / 1e6
        return f"<ClockDomain {self.name!r} {mhz:.0f}MHz cycle={self.cycle}>"


class Simulator:
    """Multi-domain cycle simulator keeping exact integer-picosecond time.

    Every entry point advances through one compiled schedule table
    (:mod:`repro.sim.schedule`).  Three inputs the table cannot express
    are rejected where they happen rather than degraded around:

    * a domain set whose exact LCM window exceeds the slot cap —
      ``add_domain`` raises ``ValueError``;
    * ``add_domain`` once time has advanced (any ``cycle > 0`` or
      ``time_ps > 0``) — ``RuntimeError``; the new domain's edges would
      start in the past.  Register every domain first, or ``reset()``;
    * ``ClockDomain.cycle`` edited from outside the kernel — the next
      cursor resync raises ``RuntimeError``.
    """

    def __init__(self) -> None:
        self.domains: Dict[str, ClockDomain] = {}
        #: Registration order — the deterministic tie-break for
        #: simultaneous cross-domain edges.
        self._domain_list: List[ClockDomain] = []
        self.time_ps: int = 0
        #: Lazily-pruned min-heap of future wakeup times (integer ps).
        self._wakeups: List[int] = []
        #: Compiled edge schedule: (domain index, edge offset) slots
        #: over one LCM window, recompiled by every ``add_domain``.
        self._table: Optional[ScheduleTable] = None
        #: The next slot to tick is ``_table_cursor`` (always a valid
        #: index) in the window starting at ``_table_base_ps``.
        self._table_base_ps = 0
        self._table_cursor = 0
        #: True when domain cycles moved without the cursor (an idle
        #: skip) — the next table access resyncs.
        self._table_dirty = False

    def add_domain(self, name: str, freq_hz: float) -> ClockDomain:
        if name in self.domains:
            raise ValueError(f"duplicate clock domain {name!r}")
        if self.time_ps > 0 or any(d.cycle > 0 for d in self._domain_list):
            raise RuntimeError(
                f"cannot add clock domain {name!r} after time has advanced "
                f"(time_ps={self.time_ps}); register domains first or reset()"
            )
        domain = ClockDomain(name, freq_hz)
        # Compile before committing, so a rejected domain leaves the
        # simulator as it was.
        self._table = compile_schedule(self._domain_list + [domain])
        self.domains[name] = domain
        self._domain_list.append(domain)
        return domain

    def _synced_table(self) -> ScheduleTable:
        """The schedule table, its cursor aligned with the domains' cycles."""
        table = self._table
        if table is None:
            raise RuntimeError("no clock domains registered")
        if self._table_dirty:
            self._table_base_ps, self._table_cursor = locate_cursor(
                table, self._domain_list
            )
            self._table_dirty = False
        return table

    def add_component(self, component: Component, domain: str) -> None:
        self.domains[domain].add(component)

    def wake(
        self,
        component: Optional[Component] = None,
        domain: Optional[str] = None,
    ) -> None:
        """Re-arm parked components (all, one domain's, or a single one)."""
        if domain is not None:
            self.domains[domain].wake(component)
            return
        for d in self._domain_list:
            d.wake(component)

    def schedule_wakeup(self, time_ps: Union[int, float]) -> None:
        """Register a future time the simulation must not idle-skip past.

        Float times are rounded *up* to the next integer picosecond so a
        wakeup never lands early.  Inserting also drops entries the
        clock has already passed, which keeps the heap bounded on busy
        runs that schedule every arrival (the old list was only pruned
        while idle-skipping, so it grew without bound under load).
        """
        t = time_ps if isinstance(time_ps, int) else math.ceil(time_ps)
        heap = self._wakeups
        now = self.time_ps
        while heap and heap[0] < now:
            heapq.heappop(heap)
        if t >= now:
            # A wakeup at exactly *now* is kept: work that becomes ready
            # at the current instant must still wake an idle run (the
            # next idle check fires it and the following step runs it).
            heapq.heappush(heap, t)

    @property
    def time_seconds(self) -> float:
        return self.time_ps / PS_PER_SECOND

    def _next_edge_ps(self) -> int:
        table = self._synced_table()
        return self._table_base_ps + table.slot_offset_ps[self._table_cursor]

    def step(self) -> None:
        """Advance global time to the earliest next clock edge and tick it.

        The (domain, edge time) pair is read from the compiled schedule
        table, whose slot order already carries the registration-order
        tie-break for simultaneous edges.  This is the only place the
        cursor advances.
        """
        table = self._synced_table()
        cur = self._table_cursor
        self.time_ps = self._table_base_ps + table.slot_offset_ps[cur]
        domain = self._domain_list[table.slot_domain[cur]]
        cur += 1
        if cur == table.slots:
            self._table_base_ps += table.window_ps
            cur = 0
        self._table_cursor = cur
        domain.tick()

    def run_cycles(self, n: int, domain: Optional[str] = None) -> None:
        """Run exactly ``n`` cycles of ``domain`` (ticking others in step).

        Other domains are ticked whenever their edges fall earlier; the
        finishing time is the exact integer edge time of the last cycle.
        """
        if domain is None:
            if len(self.domains) != 1:
                raise ValueError("domain must be named when several exist")
            domain = next(iter(self.domains))
        d = self.domains[domain]
        target = d.cycle + n
        while d.cycle < target:
            self.step()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_time_ps: Optional[Union[int, float]] = None,
        max_steps: int = 100_000_000,
    ) -> bool:
        """Run until ``predicate()`` is true.

        Returns True if the predicate fired, False if the run stopped on
        the time/step bound or because everything went idle with no
        scheduled wakeups.  When all components are idle, time jumps to
        the next scheduled wakeup instead of simulating empty cycles.
        """
        steps = 0
        domains = self._domain_list
        while not predicate():
            if max_time_ps is not None and self.time_ps >= max_time_ps:
                return False
            if steps >= max_steps:
                return False
            busy = False
            for d in domains:
                if d.busy():
                    busy = True
                    break
            if not busy:
                if not self._skip_to_next_wakeup(max_time_ps):
                    return False
            self.step()
            steps += 1
        return True

    def _skip_to_next_wakeup(
        self, max_time_ps: Optional[Union[int, float]]
    ) -> bool:
        """Jump an all-idle simulation to its next scheduled wakeup.

        Returns True when the caller should keep stepping (a wakeup was
        reached, or fired at the current instant), False when the run is
        over — no wakeup pending, or the next one lies at/past
        ``max_time_ps``.  In the clamped case time lands exactly on
        ``ceil(max_time_ps)`` with every domain on its last edge
        strictly before it and nothing woken: no edge at or past the
        bound is ever ticked on the idle path, and a later run resumes
        by crossing the first edge at or after the bound.
        """
        heap = self._wakeups
        now = self.time_ps
        while heap and heap[0] < now:
            heapq.heappop(heap)
        if not heap:
            return False
        target = heap[0]
        if target <= now:
            # Work became ready at exactly the current instant: consume
            # the entry (and duplicates), wake everything, and let the
            # caller's next step() run the first following edge.
            while heap and heap[0] <= now:
                heapq.heappop(heap)
            for domain in self._domain_list:
                domain.wake()
            return True
        if max_time_ps is not None:
            bound = math.ceil(max_time_ps)
            if bound <= target:
                # The wakeup is outside this run's window.  Land on the
                # bound without waking or ticking anything; the wakeup
                # stays queued for a later, longer run.
                for domain in self._domain_list:
                    k = domain.last_cycle_before(bound)
                    if k > domain.cycle:
                        domain.cycle = k
                self._table_dirty = True
                if bound > self.time_ps:
                    self.time_ps = bound
                return False
        # Land every domain on its last edge strictly before the target,
        # so the next step() ticks the first edge at or after it: a
        # wakeup scheduled exactly on an edge fires ON that edge.  The
        # served entry (and duplicates) is consumed here — pruning no
        # longer drops entries at the current time, so leaving it would
        # re-fire it on the next idle check.
        while heap and heap[0] <= target:
            heapq.heappop(heap)
        for domain in self._domain_list:
            k = domain.last_cycle_before(target)
            if k > domain.cycle:
                domain.cycle = k
            # Whatever was parked may receive work at the wakeup.
            domain.wake()
        self._table_dirty = True
        if target > self.time_ps:
            self.time_ps = target
        return True

    def run_until_time_ps(self, deadline_ps: int) -> None:
        """Tick every edge strictly before ``deadline_ps``, in order.

        On return every domain sits on its last edge before the
        deadline, so the very next :meth:`step` crosses the first edge
        at or after it — the same landing contract as a scheduled
        wakeup.  This is the primitive sharded runs slice time with:
        a bounded window of simulation with an exact, replayable stop.
        Slicing is cycle-exact because the deadline only bounds *when*
        the cursor walk pauses, never which slot comes next.
        """
        while self._next_edge_ps() < deadline_ps:
            self.step()

    def run_lockstep(
        self,
        epoch_ps: int,
        barrier: Callable[[int, int], None],
        epochs: int,
    ) -> None:
        """Advance in fixed epochs, calling ``barrier`` between them.

        Epoch ``e`` simulates every edge in ``[e*epoch_ps,
        (e+1)*epoch_ps)`` and then calls ``barrier(e, boundary_ps)`` —
        the hook a sharded run uses to exchange cross-shard traffic
        while all shards sit at the same boundary.  Slicing is
        cycle-exact: the edges ticked (and their order) are identical
        to an unsliced run, because epochs only bound *when* the loop
        pauses, never which edge comes next.  Epochs are measured from
        the current time, so a partially-advanced simulator locksteps
        from where it is.
        """
        if epoch_ps <= 0:
            raise ValueError(f"epoch_ps must be positive, got {epoch_ps}")
        origin = self.time_ps
        for epoch in range(epochs):
            boundary = origin + (epoch + 1) * epoch_ps
            self.run_until_time_ps(boundary)
            barrier(epoch, boundary)

    def reset(self) -> None:
        self.time_ps = 0
        self._wakeups.clear()
        # The compiled table stays valid (same domains); every cycle
        # returns to zero, which is slot 0 of window 0.
        self._table_base_ps = 0
        self._table_cursor = 0
        self._table_dirty = False
        for domain in self._domain_list:
            domain.reset()
