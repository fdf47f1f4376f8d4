"""Outside-in span tracing: class-level wrappers around layer public methods.

Nothing under ``src/`` knows about this.  :func:`install` replaces the
callables named in :data:`SPAN_TABLE` with timing wrappers *before* the
workload builds its objects (so bound methods captured at construction
time are already wrapped) and :func:`remove` puts the originals back.

Every span yields ``calls`` and ``self_s``: inclusive time minus the
time covered by child spans, kept with a span stack.  One thread, no
contention — so the self times of all spans plus the root's add up to
the root's inclusive time, and a faster layer can save at most its own
``self_s``.  Aggregates stay in memory; spans above tick level (root,
per-run, per-exhibit, per-epoch) are also kept as individual records.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span -> (targets, options).  A target is ``module:Class.method``,
#: ``module:Class+.method`` (the class and every subclass that defines
#: the method itself), ``module:function`` or ``module:DICT[key]``.
#: Options: ``record`` keeps each call as a record; ``sum_arg`` adds up
#: that positional argument (0 = first after self); ``group_attr``
#: splits self time by that attribute of ``self``; ``tag_pump`` wraps
#: LoadEngine-bound callables passed through the call as traffic.pump.
SPAN_TABLE: List[Tuple[str, List[str], Dict[str, Any]]] = [
    ("traffic.run", ["repro.traffic.engine:LoadEngine.run"], {"record": True}),
    # traffic.pump has no target of its own: see tag_pump on engine.testbed.
    ("traffic.pump", [], {}),
    ("engine.testbed", ["repro.engine.testbed:Testbed.run"],
     {"record": True, "tag_pump": True}),
    ("engine.tick", ["repro.engine.ftengine:FtEngine.tick"], {}),
    ("engine.advance", ["repro.engine.ftengine:FtEngine.advance_cycles"],
     {"sum_arg": 0}),
    ("engine.host_io", [
        "repro.engine.ftengine:FtEngine.send_data",
        "repro.engine.ftengine:FtEngine.recv_data",
        "repro.engine.ftengine:FtEngine.readable",
        "repro.engine.ftengine:FtEngine.connect",
        "repro.engine.ftengine:FtEngine.accept",
        "repro.engine.ftengine:FtEngine.close_flow",
        "repro.engine.ftengine:FtEngine.drain_host_messages",
    ], {}),
    ("engine.sched", [
        "repro.engine.scheduler:Scheduler.tick",
        "repro.engine.scheduler:Scheduler.submit",
    ], {}),
    ("engine.fpc", ["repro.engine.fpc:FlowProcessingCore.tick"], {}),
    ("engine.fpu", ["repro.engine.fpu:Fpu.process"], {}),
    ("engine.rx", ["repro.engine.rx_parser:RxParser.parse"], {}),
    ("engine.tx", ["repro.engine.packet_gen:PacketGenerator.generate"], {}),
    ("engine.memmgr", [
        "repro.engine.memory_manager:MemoryManager.tick",
        "repro.engine.memory_manager:MemoryManager.handle_event",
        "repro.engine.memory_manager:MemoryManager.store",
        "repro.engine.memory_manager:MemoryManager.take",
    ], {}),
    ("mem.access", [
        "repro.mem.hierarchy:TcbCacheHierarchy.access",
        "repro.mem.hierarchy:TcbCacheHierarchy.invalidate",
    ], {}),
    ("sim.dram", ["repro.sim.memory:DRAMModel.transfer"], {}),
    ("tcp.reassembly", [
        "repro.tcp.reassembly:ReassemblyBuffer.offer",
        "repro.tcp.reassembly:ReassemblyBuffer.read",
    ], {}),
    ("tcp.cuckoo", [
        "repro.tcp.cuckoo:CuckooHashTable.get",
        "repro.tcp.cuckoo:CuckooHashTable.insert",
        "repro.tcp.cuckoo:CuckooHashTable.remove",
    ], {}),
    ("net.wire", [
        "repro.net.wire:WirePort.send",
        "repro.net.wire:WirePort.poll",
    ], {}),
    ("fabric.run", ["repro.fabric.engine:run_fabric"], {"record": True}),
    ("fabric.softstack", [
        "repro.fabric.softstack:SoftStack.tick",
        "repro.fabric.softstack:SoftStack.send_data",
        "repro.fabric.softstack:SoftStack.recv_data",
    ], {}),
    ("fabric.switch", [
        "repro.fabric.switch:SwitchFabric.advance",
        "repro.fabric.switch:CellSwitch.admit",
        "repro.fabric.switch:CellSwitch.send_from",
        "repro.fabric.switch:CellSwitch.deliver_due",
    ], {}),
    ("fabric.service", [
        "repro.fabric.service:ServiceModel+.tx_ready_ps",
        "repro.fabric.service:ServiceModel+.rx_delay_ps",
    ], {}),
    ("shard.run", ["repro.shard.runner:run_shard"], {"record": True}),
    ("shard.cell", ["repro.shard.cell:CellSim.run_epoch"],
     {"record": True, "group_attr": "cell"}),
    ("shard.exchange", [
        "repro.shard.cell:CellSim.take_outboxes",
        "repro.shard.cell:CellSim.receive",
    ], {}),
    ("refsim.run", ["repro.refsim.netsim:ReferenceTcpSimulation.run"],
     {"record": True}),
    ("apps.nginx", ["repro.apps.nginx:simulate_closed_loop"], {}),
]

#: The 15 exhibit drivers, one span each (``analysis.<exhibit>``).
EXHIBITS = [
    "table1", "figure1", "figure2", "figure7", "figure8", "figure9",
    "figure10", "figure11", "figure12", "figure13", "figure14", "figure15",
    "figure16a", "figure16b", "table2",
]
SPAN_TABLE += [
    (f"analysis.{name}",
     [f"repro.analysis.experiments:ALL_EXPERIMENTS[{name}]"],
     {"record": True})
    for name in EXHIBITS
]

SPAN_NAMES = [span for span, _targets, _options in SPAN_TABLE]
ROOT = "bench.unit"


class Tracer:
    """Span aggregates, the span stack and the kept records."""

    def __init__(self) -> None:
        #: span -> [calls, self_s]
        self.agg: Dict[str, List[float]] = {name: [0, 0.0] for name in SPAN_NAMES}
        self.agg[ROOT] = [0, 0.0]
        #: One child-time accumulator per open span.
        self.stack: List[float] = []
        #: span -> sum of its ``sum_arg`` argument.
        self.arg_sums: Dict[str, int] = {}
        #: span -> {group value: self_s}
        self.groups: Dict[str, Dict[Any, float]] = {}
        #: (span, start_s, end_s, parent record index or -1)
        self.records: List[Tuple[str, float, float, int]] = []
        self._open_records: List[int] = []
        #: Time taken out of every span (the calibration handler's).
        self.excluded_s = 0.0

    def reset(self) -> None:
        for cell in self.agg.values():
            cell[0] = 0
            cell[1] = 0.0
        self.arg_sums.clear()
        self.groups.clear()
        self.records.clear()
        self.excluded_s = 0.0

    def exclude(self, seconds: float) -> None:
        """Time that belongs to no span (it interrupted the open one)."""
        self.excluded_s += seconds
        if self.stack:
            self.stack[-1] += seconds

    # ------------------------------------------------------------ wrappers
    def wrap(self, span: str, fn: Callable, options: Dict[str, Any]) -> Callable:
        if not options:
            return self._wrap_plain(span, fn)
        return self._wrap_general(span, fn, options)

    def _wrap_plain(self, span: str, fn: Callable) -> Callable:
        """The hot wrapper (engine.tick runs once per simulated cycle)."""
        cell = self.agg[span]
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                cell[0] += 1
                cell[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_general(
        self, span: str, fn: Callable, options: Dict[str, Any]
    ) -> Callable:
        cell = self.agg[span]
        stack = self.stack
        clock = perf_counter
        record = options.get("record", False)
        sum_arg = options.get("sum_arg")
        group_attr = options.get("group_attr")
        tag_pump = options.get("tag_pump", False)
        records = self.records
        open_records = self._open_records

        def wrapper(*args, **kwargs):
            if tag_pump:
                args, kwargs = self._tag_pump(args, kwargs)
            if sum_arg is not None:
                self.arg_sums[span] = self.arg_sums.get(span, 0) + args[sum_arg + 1]
            if record:
                index = len(records)
                parent = open_records[-1] if open_records else -1
                records.append((span, 0.0, 0.0, parent))
                open_records.append(index)
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                own = elapsed - stack.pop()
                cell[0] += 1
                cell[1] += own
                if stack:
                    stack[-1] += elapsed
                if group_attr is not None:
                    by_group = self.groups.setdefault(span, {})
                    key = getattr(args[0], group_attr)
                    by_group[key] = by_group.get(key, 0.0) + own
                if record:
                    open_records.pop()
                    records[index] = (span, started, ended, parent)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _tag_pump(self, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
        """Wrap the callables LoadEngine hands across Testbed.run."""
        from repro.traffic.engine import LoadEngine

        def tag(value: Any) -> Any:
            if callable(value) and isinstance(
                getattr(value, "__self__", None), LoadEngine
            ):
                return self._wrap_plain("traffic.pump", value)
            return value

        return (
            tuple(tag(a) for a in args),
            {key: tag(value) for key, value in kwargs.items()},
        )

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span of one unit."""
        return self._wrap_general(ROOT, fn, {"record": True})()

    # -------------------------------------------------------------- rollup
    def rollup(self) -> Dict[str, Dict[str, float]]:
        return {
            span: {"calls": int(cell[0]), "self_s": cell[1]}
            for span, cell in self.agg.items()
        }


# ------------------------------------------------------- install / remove
class Installed:
    """What :func:`install` changed, so :func:`remove` can undo it."""

    def __init__(self) -> None:
        #: (owner object, attribute or key, original value, is_dict_item)
        self.patches: List[Tuple[Any, Any, Any, bool]] = []
        #: span -> the targets actually wrapped (provenance).
        self.table: Dict[str, List[str]] = {}
        #: Targets named in SPAN_TABLE that no longer resolve.
        self.missing: List[str] = []


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _patch_attr(installed: Installed, owner: Any, name: str, new: Any) -> None:
    installed.patches.append((owner, name, owner.__dict__[name], False))
    setattr(owner, name, new)


def install(tracer: Tracer) -> Installed:
    installed = Installed()
    for span, targets, options in SPAN_TABLE:
        done = installed.table.setdefault(span, [])
        for target in targets:
            module_name, _, path = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                if "[" in path:  # DICT[key]
                    dict_name, _, key = path.rstrip("]").partition("[")
                    mapping = getattr(module, dict_name)
                    original = mapping[key]
                    installed.patches.append((mapping, key, original, True))
                    mapping[key] = tracer.wrap(span, original, options)
                elif "." in path:  # Class.method or Class+.method
                    class_name, _, method = path.partition(".")
                    with_subclasses = class_name.endswith("+")
                    cls = getattr(module, class_name.rstrip("+"))
                    owners = _subclasses(cls) if with_subclasses else [cls]
                    owners = [o for o in owners if method in o.__dict__]
                    if not owners:
                        raise AttributeError(method)
                    for owner in owners:
                        _patch_attr(
                            installed, owner, method,
                            tracer.wrap(span, owner.__dict__[method], options),
                        )
                else:  # module-level function, wherever it was imported to
                    original = getattr(module, path)
                    wrapper = tracer.wrap(span, original, options)
                    for other in list(sys.modules.values()):
                        name = getattr(other, "__name__", "")
                        if not name.startswith(("repro", "bench")):
                            continue
                        if other.__dict__.get(path) is original:
                            _patch_attr(installed, other, path, wrapper)
            except (ImportError, AttributeError, KeyError):
                installed.missing.append(target)
                continue
            done.append(target)
    return installed


def remove(installed: Installed) -> None:
    for owner, name, original, is_item in reversed(installed.patches):
        if is_item:
            owner[name] = original
        else:
            setattr(owner, name, original)
    installed.patches.clear()
