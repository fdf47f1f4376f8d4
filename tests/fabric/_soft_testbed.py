"""Two soft stacks back to back: the two-host rig the tests run
``LoadEngine`` and the soft-stack cases on.

The point-to-point backends of the paper's comparison (FlexTOE, PnO,
Linux) are service models under :class:`~repro.fabric.softstack.
SoftStack`; in the program they run on the switch fabric.  This rig
puts two of them on a :class:`SoftWire` with the shape of
:class:`~repro.engine.testbed.Testbed` (``engine_a``/``engine_b``/
``wire``/``run()``/``now_s``/``cycle``), so ``LoadEngine(scenario,
testbed=SoftTestbed(...))`` drives soft stacks and the real engine pair
through the same traffic.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.engine.testbed import message_driven
from repro.fabric.service import ServiceModel
from repro.fabric.softstack import SoftStack, TimerWakeIndex, run_event_loop
from repro.net.wire import (
    DelayFn, FaultFn, LinkDirection, WirePort, derive_seed,
)
from repro.sim.component import seconds_to_ps
from repro.tcp.segment import ip_from_string

#: Engine-period compatibility constant: ``cycle`` below is derived
#: from integer picoseconds at the F4T 250 MHz period.
_PERIOD_PS = 4_000


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: the ``nth`` segment (from 0) of ``kind``
    sent in ``direction`` (``"a2b"`` or ``"b2a"``) is dropped, held back
    ``delay_ps`` on the wire, delivered twice (the copy ``delay_ps``
    behind, or right behind with 0), or — data segments only —
    CE-marked."""

    direction: str
    kind: str        # 'syn' | 'synack' | 'data' | 'ack' | 'fin' | 'rst'
    nth: int
    action: str = "drop"  # 'drop' | 'delay' | 'dup' | 'ce'
    delay_ps: int = 0

    def __post_init__(self) -> None:
        assert self.direction in ("a2b", "b2a"), self.direction
        assert self.action in ("drop", "delay", "dup", "ce"), self.action
        assert self.action != "ce" or self.kind == "data", self
        if self.action == "dup":
            assert self.delay_ps >= 0, self
        else:
            assert (self.action == "delay") == (self.delay_ps > 0), self


class FaultSchedule:
    """Faults by per-direction, per-kind segment index: deterministic
    loss, reordering, duplication and CE marks with no RNG involved.

    :meth:`hooks` gives a direction's ``drop_fn``/``delay_fn`` pair for
    :class:`~repro.net.wire.LinkDirection`; ``fired`` lists the faults
    that met their segment, in wire order.  A duplicate is sent by the
    direction's :class:`_ScheduledPort` and passes the hooks unfaulted
    and uncounted: it is no segment of its own.
    """

    def __init__(self, faults: Iterable[Fault]) -> None:
        self._faults: Dict[Tuple[str, str, int], List[Fault]] = {}
        for fault in faults:
            self._faults.setdefault(
                (fault.direction, fault.kind, fault.nth), []
            ).append(fault)
        self._counts: Counter = Counter()
        #: (direction, link frame index) -> hold-back of a frame the
        #: drop hook matched and did not drop.
        self._holds: Dict[Tuple[str, int], int] = {}
        #: direction -> hold-back of the copy its port sends next.
        self.copies: Dict[str, int] = {}
        self.fired: List[Fault] = []

    def hooks(self, direction: str) -> Tuple[FaultFn, DelayFn]:
        def drop_fn(packet, index: int) -> bool:
            if direction in self.copies:  # the copy of a 'dup'
                self._holds[direction, index] = self.copies.pop(direction)
                return False
            nth = self._counts[direction, packet.kind]
            self._counts[direction, packet.kind] += 1
            dropped = False
            for fault in self._faults.get((direction, packet.kind, nth), ()):
                self.fired.append(fault)
                if fault.action == "drop":
                    dropped = True
                elif fault.action == "ce":
                    packet.ce = True
                elif fault.action == "dup":
                    self.copies[direction] = fault.delay_ps
                else:
                    self._holds[direction, index] = fault.delay_ps
            return dropped

        def delay_fn(packet, index: int) -> int:
            return self._holds.pop((direction, index), 0)

        return drop_fn, delay_fn


class _ScheduledPort(WirePort):
    """A wire end that puts a second copy of a segment on the link when
    its direction's schedule duplicates that segment."""

    def __init__(
        self, outbound: LinkDirection, inbound: LinkDirection,
        schedule: FaultSchedule, direction: str,
    ) -> None:
        super().__init__(outbound=outbound, inbound=inbound)
        self._copies = schedule.copies
        self._direction = direction

    def send(self, frame, now_ps: int) -> None:
        self._outbound.transmit(frame, now_ps)
        if self._direction in self._copies:
            self._outbound.transmit(frame, now_ps)


class SoftWire:
    """A duplex point-to-point soft link with optional seeded loss or a
    :class:`FaultSchedule`: two :class:`~repro.net.wire.LinkDirection`
    of the 100 GbE link, whose ends are
    :class:`~repro.net.wire.WirePort`."""

    def __init__(
        self,
        drop_probability: float = 0.0,
        seed: int = 0,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        def data_drops(label: str) -> Optional[FaultFn]:
            # Only data segments are dropped, one draw each: control
            # segments never touch the RNG.
            if drop_probability <= 0:
                return None
            rng = random.Random(derive_seed(seed, label))
            return lambda packet, index: (
                packet.kind == "data" and rng.random() < drop_probability
            )

        if schedule is not None:
            assert drop_probability <= 0, "a schedule or seeded loss, not both"
            drop_ab, delay_ab = schedule.hooks("a2b")
            drop_ba, delay_ba = schedule.hooks("b2a")
        else:
            drop_ab = data_drops("soft-drop-a2b")
            drop_ba = data_drops("soft-drop-b2a")
            delay_ab = delay_ba = None
        self._ab = LinkDirection(drop_fn=drop_ab, delay_fn=delay_ab)
        self._ba = LinkDirection(drop_fn=drop_ba, delay_fn=delay_ba)
        if schedule is not None:
            self.port_a = _ScheduledPort(self._ab, self._ba, schedule, "a2b")
            self.port_b = _ScheduledPort(self._ba, self._ab, schedule, "b2a")
        else:
            self.port_a = WirePort(outbound=self._ab, inbound=self._ba)
            self.port_b = WirePort(outbound=self._ba, inbound=self._ab)

    @property
    def frames_sent(self) -> int:
        return self._ab.frames_sent + self._ba.frames_sent

    @property
    def frames_dropped(self) -> int:
        return self._ab.frames_dropped + self._ba.frames_dropped

    @property
    def bytes_sent(self) -> int:
        return self._ab.bytes_sent + self._ba.bytes_sent

    def next_event_ps(self) -> Optional[int]:
        return min(
            (d._in_flight[0][0] for d in (self._ab, self._ba) if d._in_flight),
            default=None,
        )

    def advance(self, now_ps: int) -> Set[int]:
        """The event loop's network step: a wire has no events of its
        own, so just name the ends (0 = a, 1 = b) with an arrival due."""
        return {
            end
            for end, inbound in enumerate((self._ba, self._ab))
            if inbound._in_flight and inbound._in_flight[0][0] <= now_ps
        }


class SoftTestbed:
    """Two soft stacks back to back, on one service model.

    The same shape as :class:`~repro.engine.testbed.Testbed` —
    ``engine_a``/``engine_b``/``wire``/``run()``/``now_s``/``cycle`` —
    but driven as a discrete-event loop over integer picoseconds: the
    soft stacks do nothing between packet arrivals and timer deadlines,
    so the loop jumps straight from event to event.
    """

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        service_factory: Callable[[], ServiceModel],
        drop_probability: float = 0.0,
        seed: int = 0,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.wire = SoftWire(
            drop_probability=drop_probability, seed=seed, schedule=schedule,
        )
        self.engine_a = SoftStack(
            ip_from_string("10.0.0.1"), self.wire.port_a, service_factory(),
            name="a", seed=seed,
        )
        self.engine_b = SoftStack(
            ip_from_string("10.0.0.2"), self.wire.port_b, service_factory(),
            name="b", seed=seed,
        )
        self._wake = TimerWakeIndex(enumerate((self.engine_a, self.engine_b)))
        self.time_ps = 0

    @property
    def now_s(self) -> float:
        return self.time_ps / 1e12

    @property
    def cycle(self) -> int:
        return self.time_ps // _PERIOD_PS

    def run(
        self,
        until: Callable[[], bool],
        max_time_s: float = 1.0,
        next_call_ps: Callable[[], int] = message_driven,
    ) -> bool:
        """Event-driven run: ``Testbed.run``'s contract, in picoseconds
        (see :func:`~repro.fabric.softstack.run_event_loop`).  ``until``
        runs when a stack posts a host message or at the instant
        ``next_call_ps`` names."""
        return run_event_loop(
            self, self._wake, self.wire, seconds_to_ps(max_time_s),
            until=until, next_call_ps=next_call_ps,
        )
