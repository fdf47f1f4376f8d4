"""Two-engine testbed: the paper's back-to-back FtEngine setup (§5).

Runs two :class:`FtEngine` instances connected by a :class:`Wire` under
one 250 MHz clock.  The loop costs what is due, not what exists: an
engine is ticked on the cycles its own work horizon names, and idle
stretches (RTO waits) are jumped to the next arrival or timer deadline.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.wire import Wire
from ..tcp.segment import ip_from_string
from ..sim.component import NEVER, seconds_to_ps
from .ftengine import ENGINE_PERIOD_PS, FtEngine, FtEngineConfig


#: The bound :meth:`Testbed.establish` gives a handshake, in seconds.
ESTABLISH_S = 10.0


def message_driven() -> int:
    """The ``next_call_ps`` of a pump with nothing time-gated.

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
    ) -> None:
        self.wire = wire if wire is not None else Wire()
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
        """:attr:`time_ps` in seconds, for reporting."""
        return self.time_ps / 1e12

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time_s: float = 1.0,
        max_steps: int = 50_000_000,
        next_call_ps: Optional[Callable[[], int]] = None,
    ) -> bool:
        """Run until ``until()`` holds; returns False on time/step bound
        (``max_steps`` counts the cycles landed on, not the ones skipped).

        With no predicate, runs until nothing is scheduled anywhere (no
        engine work, nothing in flight, no timers pending).

        One loop, whose cost follows the work instead of the clock.
        Each iteration lands on the earliest of both engines'
        :attr:`FtEngine.next_action`, the cycle the pump asked for and
        the bound, and ticks the engine(s) due there; the cycles an
        engine sat out reach it as one :meth:`FtEngine.advance_cycles`
        before its next tick, the next ``until`` call or the return.
        An engine keeps its horizon current through its own ticks and
        host calls; the peer's tick can only pull its wire-arrival term
        in (a frame sent at cycle *c* arrives strictly after *c*), so
        that term is folded in after a tick that put a new frame at the
        head of the peer's inbound wire.

        ``until`` is called after every cycle landed on — every cycle
        on which an engine worked — unless the pump declares its own
        schedule through ``next_call_ps`` — the contract
        ``run_event_loop`` shares, in picoseconds.  Asked right after
        each ``until`` call, it names the integer-ps instant at which a
        later call would act by itself (an arrival release, an audit, a
        sample): :data:`NEVER` if nothing is time-gated, an instant
        already reached if the next cycle's call may act.  The loop
        lands on the first cycle at or after it (an integer ceil), and
        ``until`` runs only there or when an engine's ``msg_epoch``
        moved — every engine-side state a blocked pump waits on is
        announced by an :class:`EngineMessage`.
        """
        # The first cycle at or after the time bound.
        bound = -(-seconds_to_ps(max_time_s) // ENGINE_PERIOD_PS)
        start = self.cycle
        # Hot loop: hoist attribute lookups — this loop runs under
        # every traffic scenario and lab sweep.
        engine_a = self.engine_a
        engine_b = self.engine_b
        tick_a = engine_a.tick
        tick_b = engine_b.tick
        # The frames on their way to each engine.
        inbound_a = engine_a._wire_in
        inbound_b = engine_b._wire_in
        engine_a.cycle = engine_b.cycle = start
        # Whatever was done to the engines between runs, from here on
        # they keep their horizons.
        engine_a.next_work_cycle()
        engine_b.next_work_cycle()
        pump_at = 0
        epoch_a = epoch_b = -1
        landings = until_calls = ticks_a = ticks_b = 0
        try:
            while True:
                cycle = self.cycle
                if (
                    next_call_ps is None
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
                    if next_call_ps is not None:
                        pump_at = next_call_ps()
                        if pump_at != NEVER:
                            pump_at = -(-pump_at // ENGINE_PERIOD_PS)
                            if pump_at <= cycle:
                                pump_at = cycle + 1
                    epoch_a = engine_a.msg_epoch
                    epoch_b = engine_b.msg_epoch
                if cycle >= bound or landings >= max_steps:
                    return False
                work_a = engine_a.next_action
                work_b = engine_b.next_action
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
                    head = inbound_b[0] if inbound_b else None
                    tick_a()
                    ticks_a += 1
                    # Unless B's own tick is next, fold in a frame A
                    # just put at the head of B's inbound wire.
                    if work_b > land and inbound_b and inbound_b[0] is not head:
                        arrival = engine_b.next_arrival_cycle()
                        if arrival < engine_b.next_action:
                            engine_b.next_action = arrival
                if work_b <= land:
                    if engine_b.cycle != land - 1:
                        engine_b.advance_cycles(land - 1 - engine_b.cycle)
                    head = inbound_a[0] if inbound_a else None
                    tick_b()
                    ticks_b += 1
                    if inbound_a and inbound_a[0] is not head:
                        arrival = engine_a.next_arrival_cycle()
                        if arrival < engine_a.next_action:
                            engine_a.next_action = arrival
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
    def establish(self) -> "tuple[int, int]":
        """Open one connection to B's port 80; returns (a_flow, b_flow).

        The handshake gets :data:`ESTABLISH_S` simulated seconds: room
        for RTO-paced SYN retries on a lossy wire.
        """
        self.engine_b.listen(80)
        a_flow = self.engine_a.connect(self.engine_b.ip, 80)
        accepted: list = []

        def done() -> bool:
            if not accepted:
                flow = self.engine_b.accept(80)
                if flow is not None:
                    accepted.append(flow)
            from ..tcp.state_machine import TcpState

            return bool(accepted) and self.engine_a.flow_state(a_flow) is TcpState.ESTABLISHED

        if not self.run(until=done, max_time_s=self.now_s + ESTABLISH_S):
            raise TimeoutError("three-way handshake did not complete")
        return a_flow, accepted[0]
