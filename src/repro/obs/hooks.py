"""Wiring: attach a :class:`~repro.obs.trace.TraceBus` to a running stack.

Every instrumented component carries two attributes the hooks manage:

* ``trace`` — the bus, or ``None`` (the compiled-out default); and
* ``trace_name`` — the component label events carry, prefixed with the
  engine's short name so ``a/fpc3`` and ``b/fpc3`` stay distinct.

Attaching is layer-aware: a component whose layers are all disabled on
the bus gets ``trace = None``, so a bus tracing only ``engine.mem``
leaves the TX path at literal zero added cost, not even the early
return inside :meth:`TraceBus.emit`.

:func:`sample_occupancy` is the periodic cross-section — queue depths,
cache counters, resident-flow counts — emitted as dict-detail events
that the exporter turns into Perfetto counter tracks.  The traffic
engine calls it on a cycle cadence during traced runs; anything driving
a testbed directly can call it by hand.
"""

from __future__ import annotations

from typing import Optional

from .trace import TraceBus


def _if_enabled(bus: Optional[TraceBus], *layers: str) -> Optional[TraceBus]:
    if bus is None:
        return None
    return bus if any(layer in bus.layers for layer in layers) else None


def attach_engine(
    engine, bus: Optional[TraceBus], name: Optional[str] = None
) -> None:
    """Point one engine (and its submodules) at ``bus``; None detaches.

    Works on anything backend-shaped: an FtEngine gets its scheduler,
    memory manager and FPCs wired individually; a soft backend (no such
    submodules — ``repro.fabric.softstack``) just gets the top-level
    ``trace``/``trace_name`` pair, on the ``fabric`` layer.
    """
    label = name if name is not None else engine.name
    scheduler = getattr(engine, "scheduler", None)
    if scheduler is None:
        engine.trace = _if_enabled(bus, "fabric")
        engine.trace_name = label
        return
    engine.trace = _if_enabled(
        bus, "engine.fpc", "engine.tx", "engine.rx", "engine.sched", "host"
    )
    engine.trace_name = label
    engine._trace_last_state = {}
    scheduler.trace = _if_enabled(bus, "engine.sched")
    scheduler.trace_name = f"{label}/sched"
    manager = engine.memory_manager
    manager.trace = _if_enabled(bus, "engine.mem")
    manager.trace_name = f"{label}/memmgr"
    for fpc in engine.fpcs:
        fpc.trace = _if_enabled(bus, "engine.fpc")
        fpc.trace_name = f"{label}/fpc{fpc.fpc_id}"


def attach_testbed(testbed, bus: Optional[TraceBus]) -> None:
    """Attach both engines of a testbed under the short names ``a``/``b``."""
    attach_engine(testbed.engine_a, bus, name="a")
    attach_engine(testbed.engine_b, bus, name="b")


def attach_load_engine(load_engine, bus: Optional[TraceBus]) -> None:
    """Attach a LoadEngine *and* its testbed; the one-call traced-run setup.

    The load engine keeps the bus whenever *any* layer is enabled: its
    pump drives the occupancy sampling for every layer, and the bus's
    own mask filters the per-layer emits.
    """
    load_engine.trace = bus if bus is not None and bus.layers else None
    load_engine._next_trace_sample_cycle = 0
    attach_testbed(load_engine.testbed, bus)


def sample_occupancy(bus: TraceBus, testbed, t_ps: float) -> None:
    """Emit one occupancy cross-section of a testbed onto the bus.

    Dict details become Perfetto counter tracks; the summary CLI folds
    them into the per-component occupancy lines.  Cumulative counters
    (cache hits/misses) are included so the counter track shows slope.
    The host-queue ``messages`` are the queues' depth: what was posted
    and the host has not popped yet (under ``LoadEngine``, what the
    engines posted since the last pump).
    """
    for name, engine in (("a", testbed.engine_a), ("b", testbed.engine_b)):
        label = getattr(engine, "trace_name", name) or name
        scheduler = getattr(engine, "scheduler", None)
        if scheduler is None:
            # Soft backend: no scheduler/memmgr/FPC cross-section, but the
            # host-message queue sample below still applies.
            bus.emit(
                t_ps, "host", f"{label}/hostq", "sample", -1,
                {"messages": len(engine.host_messages)},
            )
            continue
        bus.emit(
            t_ps, "engine.sched", f"{label}/sched", "sample", -1,
            {
                "backlog": scheduler.input_backlog,
                "pending": len(scheduler.pending),
                "migrations": len(scheduler._migrations),
            },
        )
        manager = engine.memory_manager
        bus.emit(
            t_ps, "engine.mem", f"{label}/memmgr", "sample", -1,
            {
                "resident": manager.flow_count,
                "cache_hits": manager.cache_hits,
                "cache_misses": manager.cache_misses,
                "input": len(manager.input),
            },
        )
        bus.emit(
            t_ps, "engine.fpc", f"{label}/fpcs", "sample", -1,
            {
                "flows": sum(fpc.flow_count for fpc in engine.fpcs),
                "queued": sum(len(fpc.input) for fpc in engine.fpcs),
                "in_flight": sum(len(fpc._in_flight) for fpc in engine.fpcs),
            },
        )
        bus.emit(
            t_ps, "host", f"{label}/hostq", "sample", -1,
            {"messages": len(engine.host_messages)},
        )
