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
from typing import Callable, Optional, Set

from repro.engine.testbed import message_driven
from repro.fabric.service import ServiceModel
from repro.fabric.softstack import SoftStack, TimerWakeIndex, run_event_loop
from repro.net.wire import FaultFn, LinkDirection, WirePort, derive_seed
from repro.sim.component import seconds_to_ps
from repro.tcp.segment import ip_from_string

#: Engine-period compatibility constant: ``cycle`` below is derived
#: from integer picoseconds at the F4T 250 MHz period.
_PERIOD_PS = 4_000


class SoftWire:
    """A duplex point-to-point soft link with optional seeded loss: two
    :class:`~repro.net.wire.LinkDirection` of the 100 GbE link, whose
    ends are :class:`~repro.net.wire.WirePort`."""

    def __init__(self, drop_probability: float = 0.0, seed: int = 0) -> None:
        def data_drops(label: str) -> Optional[FaultFn]:
            # Only data segments are dropped, one draw each: control
            # segments never touch the RNG.
            if drop_probability <= 0:
                return None
            rng = random.Random(derive_seed(seed, label))
            return lambda packet, index: (
                packet.kind == "data" and rng.random() < drop_probability
            )

        self._ab = LinkDirection(drop_fn=data_drops("soft-drop-a2b"))
        self._ba = LinkDirection(drop_fn=data_drops("soft-drop-b2a"))
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
    ) -> None:
        self.wire = SoftWire(drop_probability=drop_probability, seed=seed)
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
