"""Two-engine testbed: the paper's back-to-back FtEngine setup (§5).

Runs two :class:`FtEngine` instances connected by a :class:`Wire` under
one 250 MHz clock.  The loop costs what is due, not what exists: an
engine is ticked on the cycles its own work horizon names, and idle
stretches (RTO waits) are jumped to the next arrival or timer deadline.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..net.link import LINK_100G, Link
from ..net.wire import Wire
from ..tcp.segment import ip_from_string
from ..sim.component import NEVER
from .ftengine import ENGINE_PERIOD_PS, FtEngine, FtEngineConfig


def message_driven() -> int:
    """The ``quiet_cycle`` of a pump with nothing cycle-gated.

    After any call such a pump is blocked on the engines, so only an
    :class:`EngineMessage` can move it — see :meth:`Testbed.run`.
    """
    return NEVER


class Testbed:
    """Two directly connected engines plus a run loop."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        config_a: Optional[FtEngineConfig] = None,
        config_b: Optional[FtEngineConfig] = None,
        wire: Optional[Wire] = None,
        link: Link = LINK_100G,
    ) -> None:
        self.wire = wire if wire is not None else Wire(link=link)
        self.engine_a = FtEngine(
            ip=ip_from_string("10.0.0.1"),
            config=config_a or FtEngineConfig(),
            port=self.wire.port_a,
        )
        self.engine_b = FtEngine(
            ip=ip_from_string("10.0.0.2"),
            config=config_b or FtEngineConfig(),
            port=self.wire.port_b,
        )
        self.cycle = 0
        #: What :meth:`run` itself did, summed over calls: cycles it
        #: visited (stepping one at a time) and cycles it covered in
        #: skips, idle jumps taken, ``until`` calls made, real ticks per
        #: engine.  Visited + advanced is the per-cycle loop's tick count.
        self.loop_stats = dict.fromkeys(
            ("cycles_visited", "cycles_advanced", "idle_jumps",
             "until_calls", "ticks_a", "ticks_b"), 0
        )

    @property
    def time_ps(self) -> int:
        """Exact integer picoseconds (cycle × 4000; see simlint F4T007)."""
        return self.cycle * ENGINE_PERIOD_PS

    @property
    def now_s(self) -> float:
        return self.time_ps / 1e12

    def step(self) -> None:
        """One 250 MHz cycle for both engines."""
        self.cycle += 1
        # Engines keep their own cycle counters aligned with the testbed.
        self.engine_a.cycle = self.cycle - 1
        self.engine_b.cycle = self.cycle - 1
        self.engine_a.tick()
        self.engine_b.tick()

    def _next_wakeup_ps(self) -> Optional[float]:
        candidates = []
        arrival = self.wire.next_arrival_ps()
        if arrival is not None:
            candidates.append(arrival)
        for engine in (self.engine_a, self.engine_b):
            wakeup = engine.next_wakeup_ps()
            if wakeup is not None:
                candidates.append(wakeup)
        future = [t for t in candidates if t > self.time_ps]
        return min(future) if future else None

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time_s: float = 1.0,
        max_steps: int = 50_000_000,
        wakeup_ps: Optional[Callable[[], Optional[float]]] = None,
        quiet_cycle: Optional[Callable[[], Optional[int]]] = None,
    ) -> bool:
        """Run until ``until()`` holds; returns False on time/step bound.

        With no predicate, runs until everything is idle (all queues
        empty, nothing in flight, no timers pending).  ``wakeup_ps``
        lets a driver announce externally scheduled work (e.g. the next
        open-loop traffic arrival) so idle-skip jumps exactly there
        instead of fast-forwarding in blind chunks past it.

        Without ``quiet_cycle`` this is the per-cycle reference: every
        cycle is visited, ``until`` called and both engines ticked on
        each.  ``quiet_cycle`` turns it into the horizon loop, whose
        cost follows the work instead of the clock.  Asked right after
        each ``until`` call, it declares the pump's own schedule: the
        earliest cycle at which a later call would act by itself (an
        arrival release, an audit, a sample), :data:`NEVER` if nothing
        is cycle-gated, None if the very next call may act.  ``until``
        then runs only when that cycle is reached or an engine's
        ``msg_epoch`` moved — every engine-side state a blocked pump
        waits on is announced by an :class:`EngineMessage`.  Each
        iteration goes to the earliest of both engines'
        :meth:`FtEngine.next_work_cycle`, the pump's cycle and the time
        bound, and ticks only the engine(s) due there; the cycles an
        engine sat out reach it as one :meth:`FtEngine.advance_cycles`,
        which is what its no-op ticks would have done to the counters.
        An engine's horizon holds until its own tick or an ``until``
        call; the peer's tick can only pull its wire-arrival term in
        (a frame sent at cycle *c* arrives strictly after *c*).

        Both modes obey one probe contract (ARCHITECTURE.md, "Where
        time lives"; the kernel-equivalence goldens pin it): ``steps``
        counts every cycle ticked *or* advanced, and the idle branch —
        a jump of ``self.cycle`` that does **not** move the engines'
        scheduler/FPC counters — is taken only on a probe top
        (``steps % 8 == 0``) that finds nothing busy.
        """
        max_time_ps = max_time_s * 1e12
        # First cycle whose top-of-loop time check exits: guarded so
        # skips stop exactly where the float compare would.
        cycle_bound = math.ceil(max_time_ps / ENGINE_PERIOD_PS)
        while cycle_bound * ENGINE_PERIOD_PS < max_time_ps:
            cycle_bound += 1
        while cycle_bound > 0 and (cycle_bound - 1) * ENGINE_PERIOD_PS >= max_time_ps:
            cycle_bound -= 1
        # Hot loop: hoist attribute lookups — this loop runs under
        # every traffic scenario and lab sweep.
        engine_a = self.engine_a
        engine_b = self.engine_b
        wire = self.wire
        tick_a = engine_a.tick
        tick_b = engine_b.tick
        due_only = quiet_cycle is not None
        engine_a.cycle = engine_b.cycle = self.cycle
        steps = 0
        idle_chunk = 256
        # An engine that is not due is not touched: it falls behind and
        # is advanced in one call just before its next tick, the next
        # ``until`` call or the return, so its counters are exact at
        # every hook.  synced_x is the ``steps`` engine x is current to.
        synced_a = synced_b = 0
        # The cycle each engine's tick is next due on (-1: stale); the
        # reference ticks both on every cycle.
        work_a = work_b = -1 if due_only else 0
        pump_at = 0
        epoch_a = epoch_b = -1
        advanced = idle_jumps = until_calls = ticks_a = ticks_b = 0
        try:
            while True:
                cycle = self.cycle
                if (
                    cycle >= pump_at
                    or engine_a.msg_epoch != epoch_a
                    or engine_b.msg_epoch != epoch_b
                ):
                    if synced_a != steps:
                        engine_a.advance_cycles(steps - synced_a)
                        synced_a = steps
                    if synced_b != steps:
                        engine_b.advance_cycles(steps - synced_b)
                        synced_b = steps
                    until_calls += 1
                    if until is not None and until():
                        return True
                    if due_only:
                        pump_at = quiet_cycle()
                        if pump_at is None:
                            pump_at = cycle + 1
                        epoch_a = engine_a.msg_epoch
                        epoch_b = engine_b.msg_epoch
                        work_a = work_b = -1  # host calls reach both engines
                if cycle * ENGINE_PERIOD_PS >= max_time_ps or steps >= max_steps:
                    return False
                busy = None
                if due_only:
                    # Stale means just ticked or just pumped: in step.
                    if work_a < 0:
                        work_a = engine_a.next_work_cycle() or NEVER
                    if work_b < 0:
                        work_b = engine_b.next_work_cycle() or NEVER
                    # An engine due on cycle k works in the iteration
                    # whose top reads k - 1; the pump and the bound act
                    # at the top itself.
                    land = (work_a if work_a < work_b else work_b) - 1
                    if land > cycle:
                        if pump_at < land:
                            land = pump_at
                        if cycle_bound < land:
                            land = cycle_bound
                        skip = land - cycle
                        if max_steps - steps < skip:
                            skip = max_steps - steps
                        to_probe = -steps % 8
                        if skip > to_probe:
                            # Busy cannot change inside a no-op run: a
                            # busy skip resets idle_chunk as the probe it
                            # crosses would; a not-busy one lands on that
                            # probe top, which must take the idle branch.
                            busy = (
                                wire.in_flight > 0
                                or engine_a.busy()
                                or engine_b.busy()
                            )
                            if busy:
                                idle_chunk = 256
                            else:
                                skip = to_probe
                        if skip > 0:
                            cycle += skip
                            self.cycle = cycle
                            steps += skip
                            advanced += skip
                            if (
                                cycle >= pump_at
                                or cycle >= cycle_bound
                                or steps >= max_steps
                            ):
                                continue
                # The busy probe costs more than an idle step, so only
                # look for idle-skip opportunities on probe tops.
                if steps % 8 == 0:
                    if busy is None:
                        busy = (
                            wire.in_flight > 0
                            or engine_a.busy()
                            or engine_b.busy()
                        )
                    if busy:
                        idle_chunk = 256
                    else:
                        idle_jumps += 1
                        before = self.cycle
                        wakeup = self._next_wakeup_ps()
                        if wakeup_ps is not None:
                            external = wakeup_ps()
                            if external is not None and external > self.time_ps:
                                wakeup = (
                                    external
                                    if wakeup is None
                                    else min(wakeup, external)
                                )
                        if wakeup is None:
                            if until is None:
                                return True  # fully idle and nothing awaited
                            # Idle but a predicate is waiting: fast-forward
                            # in growing chunks so cycle-gated drivers (send
                            # pumps) still run, yet long dead time is cheap.
                            self.cycle += idle_chunk
                            idle_chunk = min(idle_chunk * 2, 1 << 22)
                        else:
                            # Jump to the cycle holding the wakeup (never
                            # past the caller's time bound).
                            target = min(wakeup, max_time_ps)
                            self.cycle = max(
                                self.cycle, math.ceil(target / ENGINE_PERIOD_PS)
                            )
                        # The engines' clocks jump along; their scheduler
                        # and FPC counters, which count ticks, do not.
                        engine_a.cycle += self.cycle - before
                        engine_b.cycle += self.cycle - before
                # One 250 MHz cycle: tick whoever is due.
                cycle = self.cycle + 1
                self.cycle = cycle
                if work_a <= cycle:
                    if synced_a != steps:
                        engine_a.advance_cycles(steps - synced_a)
                    tick_a()
                    synced_a = steps + 1
                    ticks_a += 1
                    if due_only:
                        work_a = -1
                        if work_b > cycle:
                            # B sits this cycle out on a horizon taken
                            # before A's tick: valid for this cycle, but a
                            # frame A just sent may arrive before it.
                            arrival = engine_b.next_arrival_cycle()
                            if arrival < work_b:
                                work_b = arrival
                if work_b <= cycle:
                    if synced_b != steps:
                        engine_b.advance_cycles(steps - synced_b)
                    tick_b()
                    synced_b = steps + 1
                    ticks_b += 1
                    if due_only:
                        work_b = -1
                        if work_a > cycle:
                            arrival = engine_a.next_arrival_cycle()
                            if arrival < work_a:
                                work_a = arrival
                steps += 1
        finally:
            if synced_a != steps:
                engine_a.advance_cycles(steps - synced_a)
            if synced_b != steps:
                engine_b.advance_cycles(steps - synced_b)
            stats = self.loop_stats
            stats["cycles_visited"] += steps - advanced
            stats["cycles_advanced"] += advanced
            stats["idle_jumps"] += idle_jumps
            stats["until_calls"] += until_calls
            stats["ticks_a"] += ticks_a
            stats["ticks_b"] += ticks_b

    # ------------------------------------------------------- conveniences
    def establish(
        self, server_port: int = 80, max_time_s: float = 0.1
    ) -> "tuple[int, int]":
        """Open one connection B->listen, A->connect; returns (a_flow, b_flow)."""
        self.engine_b.listen(server_port)
        a_flow = self.engine_a.connect(self.engine_b.ip, server_port)
        accepted: list = []

        def done() -> bool:
            if not accepted:
                flow = self.engine_b.accept(server_port)
                if flow is not None:
                    accepted.append(flow)
            from ..tcp.state_machine import TcpState

            return bool(accepted) and self.engine_a.flow_state(a_flow) is TcpState.ESTABLISHED

        if not self.run(until=done, max_time_s=max_time_s):
            raise TimeoutError("three-way handshake did not complete")
        return a_flow, accepted[0]
