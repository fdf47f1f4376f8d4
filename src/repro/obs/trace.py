"""The trace bus: append-only structured events from every layer.

One :class:`TraceBus` instance is shared by every instrumented component
of a run (engines, scheduler, memory manager, FPCs, host runtime,
traffic engine).  Components hold a ``trace`` attribute that is ``None``
by default; every emit site is guarded by ``if self.trace is not None``
so an untraced run pays one attribute load per would-be event and
nothing else — that is the "compiled out" discipline the overhead guard
in ``benchmarks/test_obs_overhead.py`` pins.

Boundedness: a 1M-event run must not hold 1M events.  The bus supports
two sampling policies sharing one ``max_events`` cap:

* ``head`` (default): keep the first ``max_events`` events, count the
  rest in :attr:`dropped` — the right default for "what happened at
  the start".
* ``reservoir``: algorithm-R reservoir over the whole stream, seeded so
  two identical runs sample identically (determinism is a feature of
  the whole harness, the trace included).

Filtering happens at emit time: per-layer enable masks (exact layer
strings, see :data:`ALL_LAYERS`) and an optional per-flow id filter, so
a bus focused on one flow of one layer stays cheap even on a busy run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Set

#: Every layer the stack emits.  Dotted names group the engine's
#: sub-layers; masks match exactly (no prefix magic) but
#: :func:`expand_layers` understands ``"engine"`` as all ``engine.*``.
ALL_LAYERS = frozenset(
    {
        "engine.fpc",    # event handler + FPU passes + state transitions
        "engine.sched",  # routing, coalescing, migrations, pending retries
        "engine.mem",    # TCB cache hits/misses, DRAM store/take, occupancy
        "engine.tx",     # generated segments leaving the engine
        "engine.rx",     # parsed segments entering the engine
        "host",          # host runtime queues and completion messages
        "traffic",       # LoadEngine request lifecycle + samples
        "fabric",        # soft backends, the switch, the fabric driver
        "shard",         # sharded runs: cell drivers, epoch barriers
    }
)

ENGINE_LAYERS = frozenset(layer for layer in ALL_LAYERS if layer.startswith("engine."))


def expand_layers(layers: Optional[Iterable[str]]) -> Set[str]:
    """Resolve layer names, accepting ``engine`` for every ``engine.*``.

    ``None`` (and ``["all"]``) mean every layer.  Unknown names raise so
    a typo in ``--trace-layers`` fails loudly instead of tracing nothing.
    """
    if layers is None:
        return set(ALL_LAYERS)
    resolved: Set[str] = set()
    for name in layers:
        if name == "all":
            resolved |= ALL_LAYERS
        elif name == "engine":
            resolved |= ENGINE_LAYERS
        elif name in ALL_LAYERS:
            resolved.add(name)
        else:
            known = ", ".join(sorted(ALL_LAYERS) + ["engine", "all"])
            raise ValueError(f"unknown trace layer {name!r} (known: {known})")
    return resolved


class TraceEvent(NamedTuple):
    """One observed action somewhere in the stack."""

    t_ps: float
    layer: str
    component: str
    kind: str
    flow_id: int  # -1 = not flow-scoped (ARP, occupancy samples, ...)
    detail: Any   # str for actions, {name: number} for occupancy samples
    dur_ps: float = 0.0

    def normalized(self) -> str:
        """A stable one-line form, the unit of the trace fingerprint."""
        if isinstance(self.detail, dict):
            detail = ",".join(f"{k}={self.detail[k]:g}" for k in sorted(self.detail))
        else:
            detail = str(self.detail)
        return (
            f"{self.t_ps:.0f}|{self.layer}|{self.component}|{self.kind}"
            f"|{self.flow_id}|{detail}|{self.dur_ps:.0f}"
        )


DEFAULT_MAX_EVENTS = 250_000


class TraceBus:
    """Bounded, filtered, append-only event sink for one run."""

    def __init__(
        self,
        layers: Optional[Iterable[str]] = None,
        flows: Optional[Set[int]] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        sampling: str = "head",
        seed: int = 0,
    ) -> None:
        if sampling not in ("head", "reservoir"):
            raise ValueError(f"sampling must be 'head' or 'reservoir', got {sampling!r}")
        self.layers = expand_layers(layers)
        self.flows = flows
        self.max_events = max_events
        self.sampling = sampling
        self._rng = random.Random(seed)
        self._events: List[TraceEvent] = []
        #: Events filtered out by the cap (head) or replaced-away
        #: candidates (reservoir); either way, emitted-but-not-kept.
        self.dropped = 0
        #: Everything that passed the layer/flow filters, kept or not.
        self.emitted = 0

    # ------------------------------------------------------------- filters
    def enabled(self, layer: str) -> bool:
        return layer in self.layers

    def wants_flow(self, flow_id: int) -> bool:
        return self.flows is None or flow_id in self.flows

    # --------------------------------------------------------------- emit
    def emit(
        self,
        t_ps: float,
        layer: str,
        component: str,
        kind: str,
        flow_id: int = -1,
        detail: Any = "",
        dur_ps: float = 0.0,
    ) -> None:
        if layer not in self.layers:
            return
        if self.flows is not None and flow_id not in self.flows:
            return
        self.emitted += 1
        event = TraceEvent(t_ps, layer, component, kind, flow_id, detail, dur_ps)
        if len(self._events) < self.max_events:
            self._events.append(event)
            return
        self.dropped += 1
        if self.sampling == "reservoir":
            # Algorithm R: the n-th emitted event replaces a kept one
            # with probability max_events/n, uniformly.
            slot = self._rng.randrange(self.emitted)
            if slot < self.max_events:
                self._events[slot] = event

    # ------------------------------------------------------------- access
    @property
    def events(self) -> List[TraceEvent]:
        """The kept events in emission order (reservoir keeps order too:
        replacement is in-place, and emission times are monotone per
        component, which is all the exporters rely on)."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def events_for_flow(self, flow_id: int) -> List[TraceEvent]:
        return [event for event in self._events if event.flow_id == flow_id]

    def count(self, kind: Optional[str] = None, layer: Optional[str] = None) -> int:
        return sum(
            1
            for event in self._events
            if (kind is None or event.kind == kind)
            and (layer is None or event.layer == layer)
        )

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self.emitted = 0


def fingerprint(events: Sequence[TraceEvent]) -> str:
    """sha256 over the normalized event stream — the determinism oracle.

    Two runs with the same seed must produce the same fingerprint; any
    behavioural divergence (ordering included) changes it.
    """
    digest = hashlib.sha256()
    for event in events:
        digest.update(event.normalized().encode())
        digest.update(b"\n")
    return digest.hexdigest()


class StreamingFingerprint:
    """A trace sink that hashes every event instead of keeping any.

    Duck-types the ``TraceBus.emit`` surface, so anything holding a
    ``trace`` attribute can be pointed at one.  Unlike the bus there is
    no event cap: the digest covers the *whole* stream at O(1) memory,
    which is what sharded million-flow runs need — the events of one
    cell never fit in RAM, but their hash does.  ``hexdigest()`` equals
    ``fingerprint(events)`` over the same stream, so streamed and
    buffered fingerprints are interchangeable.
    """

    def __init__(self, layers: Optional[Iterable[str]] = None) -> None:
        self.layers = None if layers is None else expand_layers(layers)
        self._digest = hashlib.sha256()
        self.emitted = 0

    def emit(
        self,
        t_ps: float,
        layer: str,
        component: str,
        kind: str,
        flow_id: int = -1,
        detail: Any = "",
        dur_ps: float = 0.0,
    ) -> None:
        if self.layers is not None and layer not in self.layers:
            return
        self.emitted += 1
        event = TraceEvent(t_ps, layer, component, kind, flow_id, detail, dur_ps)
        self._digest.update(event.normalized().encode())
        self._digest.update(b"\n")

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def merge_fingerprints(parts: Sequence[str]) -> str:
    """Combine per-cell fingerprints into one deterministic run digest.

    The merge hashes ``index|part`` lines in cell order, so it is
    sensitive to both each cell's stream and the cell layout — but NOT
    to how cells were packed onto worker processes.  That is the shard
    determinism contract: the merged fingerprint of a run is a pure
    function of (scenario, seed, cell count), never of worker count.
    """
    if not parts:
        raise ValueError("merge_fingerprints needs at least one part")
    digest = hashlib.sha256()
    for index, part in enumerate(parts):
        digest.update(f"{index}|{part}".encode())
        digest.update(b"\n")
    return digest.hexdigest()
