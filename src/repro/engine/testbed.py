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
        #: landed on and cycles it skipped on the way (together every
        #: simulated cycle), ``until`` calls made, ticks per engine.
        self.loop_stats = dict.fromkeys(
            ("cycles_visited", "cycles_advanced", "until_calls",
             "ticks_a", "ticks_b"), 0
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
        self.engine_a.cycle = self.engine_b.cycle = self.cycle
        self.cycle += 1
        self.engine_a.tick()
        self.engine_b.tick()

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time_s: float = 1.0,
        max_steps: int = 50_000_000,
        wakeup_ps: Optional[Callable[[], Optional[float]]] = None,
        quiet_cycle: Optional[Callable[[], Optional[int]]] = None,
    ) -> bool:
        """Run until ``until()`` holds; returns False on time/step bound
        (``max_steps`` counts the cycles landed on, not the ones skipped).

        With no predicate, runs until nothing is scheduled anywhere (no
        engine work, nothing in flight, no timers pending).

        One loop, whose cost follows the work instead of the clock.
        Each iteration lands on the earliest of both engines'
        :meth:`FtEngine.next_work_cycle`, the cycle the pump asked for
        and the bound, and ticks the engine(s) due there; the cycles an
        engine sat out reach it as one :meth:`FtEngine.advance_cycles`
        before its next tick, the next ``until`` call or the return.
        An engine's horizon holds until its own tick or an ``until``
        call; the peer's tick can only pull its wire-arrival term in
        (a frame sent at cycle *c* arrives strictly after *c*).

        ``until`` is called after every cycle landed on — every cycle
        on which an engine worked — unless the pump declares its own
        schedule through ``quiet_cycle``.  Asked right after each
        ``until`` call, that names the earliest cycle at which a later
        call would act by itself (an arrival release, an audit, a
        sample): :data:`NEVER` if nothing is cycle-gated, None if the
        very next call may act.  ``until`` then runs only when that
        cycle is reached or an engine's ``msg_epoch`` moved — every
        engine-side state a blocked pump waits on is announced by an
        :class:`EngineMessage`.  ``wakeup_ps`` names externally
        scheduled work (the next open-loop arrival) as a time; the loop
        lands on the first cycle at or after it and calls ``until``.
        """
        max_time_ps = max_time_s * 1e12
        # First cycle on which the time bound's own float compare,
        # ``cycle * period >= max_time_ps``, holds.
        bound = math.ceil(max_time_ps / ENGINE_PERIOD_PS)
        while bound * ENGINE_PERIOD_PS < max_time_ps:
            bound += 1
        while bound > 0 and (bound - 1) * ENGINE_PERIOD_PS >= max_time_ps:
            bound -= 1
        start = self.cycle
        # Hot loop: hoist attribute lookups — this loop runs under
        # every traffic scenario and lab sweep.
        engine_a = self.engine_a
        engine_b = self.engine_b
        tick_a = engine_a.tick
        tick_b = engine_b.tick
        engine_a.cycle = engine_b.cycle = start
        # The cycle each engine's tick is next due on (-1: stale).
        work_a = work_b = -1
        pump_at = 0
        epoch_a = epoch_b = -1
        landings = until_calls = ticks_a = ticks_b = 0
        try:
            while True:
                cycle = self.cycle
                if (
                    quiet_cycle is None
                    or cycle >= pump_at
                    or engine_a.msg_epoch != epoch_a
                    or engine_b.msg_epoch != epoch_b
                ):
                    for engine in (engine_a, engine_b):
                        if engine.cycle != cycle:
                            engine.advance_cycles(cycle - engine.cycle)
                    until_calls += 1
                    if until is not None and until():
                        return True
                    pump_at = NEVER
                    if quiet_cycle is not None:
                        pump_at = quiet_cycle()
                        if pump_at is None:
                            pump_at = cycle + 1
                    if wakeup_ps is not None:
                        external = wakeup_ps()
                        if external is not None and external > self.time_ps:
                            pump_at = min(
                                pump_at, math.ceil(external / ENGINE_PERIOD_PS)
                            )
                    epoch_a = engine_a.msg_epoch
                    epoch_b = engine_b.msg_epoch
                    work_a = work_b = -1  # host calls reach both engines
                if cycle >= bound or landings >= max_steps:
                    return False
                # Stale means just ticked or just pumped: in step.
                if work_a < 0:
                    work_a = engine_a.next_work_cycle() or NEVER
                if work_b < 0:
                    work_b = engine_b.next_work_cycle() or NEVER
                land = work_a if work_a < work_b else work_b
                if cycle < pump_at < land:
                    land = pump_at
                if land == NEVER and until is None:
                    return True  # nothing scheduled and nothing awaited
                if bound < land:
                    land = bound
                self.cycle = land
                landings += 1
                if work_a <= land:
                    if engine_a.cycle != land - 1:
                        engine_a.advance_cycles(land - 1 - engine_a.cycle)
                    tick_a()
                    ticks_a += 1
                    work_a = -1
                    if work_b > land:
                        # B sits this cycle out on a horizon taken
                        # before A's tick: valid for this cycle, but a
                        # frame A just sent may arrive before it.
                        arrival = engine_b.next_arrival_cycle()
                        if arrival < work_b:
                            work_b = arrival
                if work_b <= land:
                    if engine_b.cycle != land - 1:
                        engine_b.advance_cycles(land - 1 - engine_b.cycle)
                    tick_b()
                    ticks_b += 1
                    work_b = -1
                    if work_a > land:
                        arrival = engine_a.next_arrival_cycle()
                        if arrival < work_a:
                            work_a = arrival
        finally:
            cycle = self.cycle
            for engine in (engine_a, engine_b):
                if engine.cycle != cycle:
                    engine.advance_cycles(cycle - engine.cycle)
            stats = self.loop_stats
            stats["cycles_visited"] += landings
            stats["cycles_advanced"] += cycle - start - landings
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
