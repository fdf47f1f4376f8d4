"""The simulated wire: serialization, propagation, loss and reordering.

Connects two FtEngines (or an engine and a host NIC model) back to back,
as the paper's testbed does (§5).  Each direction serializes frames at
the link rate, delays them by the propagation latency, and optionally
applies fault injection — drops and reorders — which is how the Fig 14
congestion-window experiments inject "occasional packet drops".  Every
instant is integer picoseconds, the engines' clock unit.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

from .link import Link, LINK_100G

#: Loss and delay predicates, called with a frame and its index in send
#: order on one direction; a delay is whole picoseconds.
FaultFn = Callable[[Any, int], bool]
DelayFn = Callable[[Any, int], int]


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for one named RNG stream under a master seed.

    Content-hash based (not ``hash()``, which is salted per process), so
    every stream — each wire direction's drop/reorder RNG, each traffic
    class's arrival and size RNGs — is reproducible across runs from one
    top-level seed, and adding a new stream never perturbs the others.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class LossPattern:
    """Factory for drop predicates used in fault-injection experiments."""

    @staticmethod
    def probability(p: float, seed: int = 1) -> FaultFn:
        """Drop each data-bearing frame independently with probability p."""
        rng = random.Random(seed)
        return lambda frame, index: rng.random() < p

    @staticmethod
    def explicit(indices: List[int]) -> FaultFn:
        targets = set(indices)
        return lambda frame, index: index in targets


class DelayPattern:
    """Factory for extra-delay functions (reordering/jitter injection).

    A delayed frame can arrive after frames transmitted later, which is
    how reordering is injected: the wire itself always serializes FIFO.
    """

    @staticmethod
    def reorder(p: float, delay_us: float = 10.0, seed: int = 1) -> DelayFn:
        """Hold each frame back by ``delay_us`` with probability ``p``."""
        rng = random.Random(seed)
        delay_ps = int(delay_us * 10**6)
        return lambda frame, index: delay_ps if rng.random() < p else 0


class LinkDirection:
    """One direction of a link, timed in integer picoseconds.

    Frames — anything with ``wire_bytes``: the engines' Ethernet frames,
    the fabric's packets — serialize FIFO at the link rate and arrive one
    propagation delay after their last bit.  The optional ``drop_fn`` and
    ``delay_fn`` inject loss and reordering.  The engine wire is made
    of these; the switch fabric times its uplinks the same way, inline.
    """

    def __init__(
        self,
        link: Link = LINK_100G,
        drop_fn: Optional[FaultFn] = None,
        delay_fn: Optional[DelayFn] = None,
    ) -> None:
        self.link = link
        self.drop_fn = drop_fn
        self.delay_fn = delay_fn
        self._prop_ps = link.propagation_delay_ps
        self.next_free_ps = 0
        self._in_flight: List[Tuple[int, int, Any]] = []
        self._sequence = 0
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_sent = 0

    def transmit(self, frame: Any, now_ps: int) -> Optional[int]:
        """Put ``frame`` on the link at ``now_ps``; returns its far-end
        arrival instant, or None if it was dropped."""
        index = self._sequence
        self._sequence += 1
        if self.drop_fn is not None and self.drop_fn(frame, index):
            self.frames_dropped += 1
            return None
        wire_bytes = frame.wire_bytes
        start = now_ps if now_ps > self.next_free_ps else self.next_free_ps
        self.next_free_ps = start + self.link.serialization_time_ps(wire_bytes)
        arrival = self.next_free_ps + self._prop_ps
        if self.delay_fn is not None:
            arrival += max(0, self.delay_fn(frame, index))
        heapq.heappush(self._in_flight, (arrival, index, frame))
        self.frames_sent += 1
        self.bytes_sent += wire_bytes
        return arrival

    def deliver_due(self, now_ps: int) -> List[Any]:
        frames: List[Any] = []
        while self._in_flight and self._in_flight[0][0] <= now_ps:
            frames.append(heapq.heappop(self._in_flight)[2])
        return frames

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


class WirePort:
    """One endpoint's handle: send frames out, poll frames in."""

    def __init__(self, outbound: LinkDirection, inbound: LinkDirection) -> None:
        self._outbound = outbound
        self._inbound = inbound

    def send(self, frame: Any, now_ps: int) -> None:
        self._outbound.transmit(frame, now_ps)

    def poll(self, now_ps: int) -> List[Any]:
        return self._inbound.deliver_due(now_ps)

    @property
    def pending(self) -> int:
        return self._inbound.in_flight + self._outbound.in_flight


class Wire:
    """A duplex link between two endpoints, ``a`` and ``b``."""

    def __init__(
        self,
        link: Link = LINK_100G,
        drop_a_to_b: Optional[FaultFn] = None,
        drop_b_to_a: Optional[FaultFn] = None,
        delay_a_to_b: Optional[DelayFn] = None,
        delay_b_to_a: Optional[DelayFn] = None,
    ) -> None:
        self.link = link
        self._ab = LinkDirection(link, drop_a_to_b, delay_a_to_b)
        self._ba = LinkDirection(link, drop_b_to_a, delay_b_to_a)
        self.port_a = WirePort(outbound=self._ab, inbound=self._ba)
        self.port_b = WirePort(outbound=self._ba, inbound=self._ab)

    @classmethod
    def impaired(
        cls,
        seed: int,
        drop_probability: float = 0.0,
        reorder_probability: float = 0.0,
        reorder_delay_us: float = 10.0,
    ) -> "Wire":
        """A duplex 100 GbE wire with seeded loss/reordering on both
        directions.

        One top-level ``seed`` determines every impairment decision; the
        four underlying RNG streams are derived per direction and per
        fault kind with :func:`derive_seed`, so identical seeds replay
        identical drop/reorder patterns bit for bit.
        """
        def drops(label: str) -> Optional[FaultFn]:
            if drop_probability <= 0:
                return None
            return LossPattern.probability(
                drop_probability, seed=derive_seed(seed, label)
            )

        def delays(label: str) -> Optional[DelayFn]:
            if reorder_probability <= 0:
                return None
            return DelayPattern.reorder(
                reorder_probability, reorder_delay_us,
                seed=derive_seed(seed, label),
            )

        return cls(
            drop_a_to_b=drops("drop-a2b"),
            drop_b_to_a=drops("drop-b2a"),
            delay_a_to_b=delays("reorder-a2b"),
            delay_b_to_a=delays("reorder-b2a"),
        )

    @property
    def in_flight(self) -> int:
        return self._ab.in_flight + self._ba.in_flight

    @property
    def frames_sent(self) -> int:
        return self._ab.frames_sent + self._ba.frames_sent

    @property
    def frames_dropped(self) -> int:
        return self._ab.frames_dropped + self._ba.frames_dropped

    @property
    def bytes_sent(self) -> int:
        return self._ab.bytes_sent + self._ba.bytes_sent
