"""simlint rules: the hygiene contracts this repo depends on.

Each rule is an AST check with a stable id (``F4T0xx``) so findings can
be suppressed per line with ``# f4t: noqa[F4T0xx]`` (or ``# f4t: noqa``
for all rules).  The rules encode contracts no off-the-shelf linter
knows:

* **F4T001 / F4T002** — the simulated layers (:data:`SIM_LAYERS`) must
  be deterministic given the seed: no shared global RNG, no wall clock.
* **F4T003** — values in TCP sequence space wrap at 2^32; raw ``<`` /
  ``>=`` comparisons are wraparound bugs, use :mod:`repro.tcp.seq`.
* **F4T004** — trace hooks follow the near-zero-cost contract: every
  ``*.trace.emit(...)`` sits under an ``if <owner>.trace is not None``
  (or truthiness) guard so untraced runs pay a single attribute test.
* **F4T005** — counters are mutated through their API (``.add()``,
  ``.record()``), never by poking the private ``_values`` store.
* **F4T006** — picosecond clocks must not accumulate fractional floats
  (``+=`` of a division drifts); recompute from absolute values.
* **F4T007** — simulated time is integer picoseconds end to end, from
  the wire through the TCP core to the arrival schedule: in the
  :data:`CLOCKED_LAYERS`, no float literal may be assigned into
  ``*_ps`` instance state outside the calibrated-constants modules.
* **F4T008 / F4T009 / F4T010 / F4T011** — the determinism-dataflow
  family added with the shard layer, F4T008 and F4T010 backed by
  :mod:`repro.check.dataflow`: unordered ``dict``/``set`` iteration must
  not feed trace emits, digests, exchange outboxes or cross-process
  pickles; process identity (``id()``, ``os.getpid()``, salted
  ``hash()``, default object ``repr``) must not enter sim state or
  digests; heap/sort keys must be totally ordered (no floats in the
  :data:`CLOCKED_LAYERS`, payload objects shielded behind a sequence
  discriminator everywhere); and sim-layer
  functions must not take mutable default arguments.
"""

from __future__ import annotations

import ast
from typing import Collection, Dict, Iterator, List, Optional, Tuple, Union, cast

from . import dataflow as df
from .findings import Finding
from .index import Module

#: Layers (packages directly under ``repro``) that run inside the
#: simulated clock domain and must be deterministic given the seed.
SIM_LAYERS = frozenset(
    {"sim", "engine", "tcp", "net", "traffic", "refsim", "fabric", "shard",
     "mem"}
)

#: Layers whose simulated time is integer picoseconds end to end, from
#: the wire through the TCP core to the arrival schedule: F4T007 keeps
#: float literals out of their ``*_ps`` state and F4T010 float elements
#: out of their heap and sort keys.  ``refsim`` stays float seconds on
#: purpose (it is the independent reference), and ``mem`` keeps no time.
CLOCKED_LAYERS = frozenset(
    {"sim", "engine", "net", "tcp", "traffic", "fabric", "shard"}
)

#: ``random`` module functions that draw from the shared global RNG.
GLOBAL_RNG_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})

#: Wall-clock call targets (dotted suffixes after alias resolution).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})

#: Names that carry TCP sequence-space values (RFC 793 TCB fields and
#: segment pointers).  Comparisons on these must go through
#: ``repro.tcp.seq`` so they survive the 2^32 wrap.
SEQ_NAMES = frozenset({
    "snd_una", "snd_nxt", "snd_max", "snd_wl1", "snd_wl2", "snd_up",
    "rcv_nxt", "rcv_adv", "rcv_up", "rcv_user", "irs", "iss",
    "seg_seq", "seg_ack", "seg_end",
})


def _first(targets: List[str], wanted: Collection[str]) -> Optional[str]:
    """The first resolved call target in ``wanted``, or None."""
    return next((target for target in targets if target in wanted), None)


def _assignments(
    ctx: Module,
) -> Iterator[Tuple[ast.stmt, List[ast.expr], Optional[ast.expr]]]:
    """(statement, targets, value) of every assignment in a module."""
    for node in ctx.nodes(ast.Assign):
        yield node, node.targets, node.value
    for aug in ctx.nodes(ast.AugAssign):
        yield aug, [aug.target], aug.value
    for ann in ctx.nodes(ast.AnnAssign):
        yield ann, [ann.target], ann.value


class LintRule:
    """Base class: one rule id, one :meth:`check` over an indexed module."""

    rule_id: str = "F4T000"
    title: str = ""
    rationale: str = ""
    #: None means every layer; otherwise a set of layer names.
    layers: Optional[frozenset] = None
    #: Path suffixes (``/``-normalised) the rule never applies to —
    #: typically the module that *implements* the guarded API.
    exempt_suffixes: Tuple[str, ...] = ()

    def applies(self, ctx: Module) -> bool:
        path = ctx.path.replace("\\", "/")
        if any(path.endswith(suffix) for suffix in self.exempt_suffixes):
            return False
        if self.layers is None:
            return True
        return ctx.layer is not None and ctx.layer in self.layers

    def check(self, ctx: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class UnseededRandomRule(LintRule):
    rule_id = "F4T001"
    title = "unseeded-rng"
    rationale = (
        "simulated layers must be reproducible given the seed; the shared "
        "global RNG (module-level random.*) and unseeded random.Random() "
        "break replayability"
    )
    layers = SIM_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            target = next(
                (t for t in ctx.imports.call_targets(node.func)
                 if t.startswith("random.")),
                None,
            )
            if target is None:
                continue
            member = target[len("random."):]
            if member == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "unseeded random.Random(); pass a derived seed "
                    "(e.g. derive_seed(...)) so runs are replayable",
                )
            elif member in GLOBAL_RNG_FUNCS:
                yield self.finding(
                    ctx, node,
                    f"module-level random.{member}() draws from the shared "
                    "global RNG; use a seeded random.Random instance",
                )
            elif member == "SystemRandom":
                yield self.finding(
                    ctx, node,
                    "random.SystemRandom is never reproducible; use a "
                    "seeded random.Random instance",
                )


class WallClockRule(LintRule):
    rule_id = "F4T002"
    title = "wall-clock"
    rationale = (
        "simulated layers measure simulated time only; wall-clock reads "
        "make results depend on host speed"
    )
    layers = SIM_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            target = _first(ctx.imports.call_targets(node.func), WALL_CLOCK_CALLS)
            if target is not None:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {target}() in a simulated layer; use "
                    "the kernel's simulated time (time_ps / now_s)",
                )


def _is_seq_operand(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id in SEQ_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in SEQ_NAMES:
        return node.attr
    return None


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        return isinstance(node.operand.value, (int, float))
    return False


_SEQ_HELPER = {
    ast.Lt: "seq_lt", ast.LtE: "seq_le", ast.Gt: "seq_gt", ast.GtE: "seq_ge",
}


class RawSeqCompareRule(LintRule):
    rule_id = "F4T003"
    title = "raw-seq-compare"
    rationale = (
        "TCP sequence space wraps at 2^32; ordered comparisons on "
        "sequence-typed values must go through repro.tcp.seq"
    )
    exempt_suffixes = ("repro/tcp/seq.py",)

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Compare):
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                helper = _SEQ_HELPER.get(type(op))
                if helper is None:
                    continue
                name = _is_seq_operand(left) or _is_seq_operand(right)
                if name is None:
                    continue
                if _is_numeric_literal(left) or _is_numeric_literal(right):
                    continue  # sentinel/initialisation checks never wrap
                yield self.finding(
                    ctx, node,
                    f"raw ordered comparison on sequence-typed value "
                    f"'{name}' is not wraparound-safe; use "
                    f"tcp.seq.{helper}(...)",
                )
                break  # one finding per comparison chain


class UnguardedTraceRule(LintRule):
    rule_id = "F4T004"
    title = "unguarded-trace"
    rationale = (
        "the tracing contract is near-zero-cost when disabled: every "
        "*.trace.emit(...) must sit under `if <owner>.trace is not None`"
    )

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "emit"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "trace"
            ):
                continue
            owner = ast.unparse(func.value)
            if not self._guarded(node, owner, ctx.parents):
                yield self.finding(
                    ctx, node,
                    f"{owner}.emit(...) without an enclosing "
                    f"`if {owner} is not None` guard; untraced runs must "
                    "pay only one attribute test",
                )

    @staticmethod
    def _test_guards(test: ast.expr, owner: str) -> bool:
        if isinstance(test, ast.Compare):
            return (
                len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and ast.unparse(test.left) == owner
            )
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(
                UnguardedTraceRule._test_guards(value, owner)
                for value in test.values
            )
        return ast.unparse(test) == owner  # bare truthiness guard

    @staticmethod
    def _is_early_return_guard(stmt: ast.stmt, owner: str) -> bool:
        """``if <owner> is None: return`` ahead of the emit also guards."""
        if not isinstance(stmt, ast.If) or stmt.orelse:
            return False
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and ast.unparse(test.left) == owner
        ):
            return False
        return all(
            isinstance(body_stmt, (ast.Return, ast.Raise, ast.Continue))
            for body_stmt in stmt.body
        )

    def _guarded(
        self, node: ast.AST, owner: str, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        child: ast.AST = node
        parent = parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.If):
                in_body = any(stmt is child for stmt in parent.body)
                if in_body and self._test_guards(parent.test, owner):
                    return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Guards do not cross call boundaries; a helper that
                # emits must carry its own guard, either enclosing or as
                # an early return ahead of the emit.
                emit_line = getattr(node, "lineno", 0)
                return any(
                    stmt.lineno < emit_line
                    and self._is_early_return_guard(stmt, owner)
                    for stmt in parent.body
                )
            if isinstance(parent, ast.Lambda):
                return False
            child = parent
            parent = parents.get(child)
        return False


class StatsBypassRule(LintRule):
    rule_id = "F4T005"
    title = "stats-bypass"
    rationale = (
        "sim.stats counters and obs metrics are mutated through their API "
        "(.add()/.record()/.observe()), never by poking the private store"
    )
    exempt_suffixes = ("repro/sim/stats.py", "repro/obs/metrics.py")

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node, targets, _ in _assignments(ctx):
            for target in targets:
                probe = target
                if isinstance(probe, ast.Subscript):
                    probe = probe.value
                if isinstance(probe, ast.Attribute) and probe.attr == "_values":
                    yield self.finding(
                        ctx, node,
                        "direct mutation of a private '_values' store; go "
                        "through the counters/metrics API instead",
                    )


class FloatPsAccumulationRule(LintRule):
    rule_id = "F4T006"
    title = "float-ps-accum"
    rationale = (
        "accumulating fractional picoseconds (`x_ps += a / b`) drifts as "
        "float error compounds; recompute from absolute values instead"
    )

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.AugAssign):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            target = node.target
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is None or not name.endswith("_ps"):
                continue
            if self._fractional(node.value):
                yield self.finding(
                    ctx, node,
                    f"accumulating a fractional value into picosecond clock "
                    f"'{name}' compounds float error; compute the absolute "
                    "time instead",
                )

    @staticmethod
    def _fractional(value: ast.expr) -> bool:
        for sub in ast.walk(value):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, float)
                and not float(sub.value).is_integer()
            ):
                return True
        return False


class FloatPsStateRule(LintRule):
    rule_id = "F4T007"
    title = "float-ps-state"
    rationale = (
        "kernel time is integer picoseconds end-to-end (PR 5); a float "
        "literal assigned into `*_ps` instance state reintroduces drift — "
        "keep physical/calibrated float constants in the exempted modules"
    )
    #: Only the clocked layers carry kernel time; hosts/analysis are free.
    layers = CLOCKED_LAYERS
    #: Calibrated physical-latency models legitimately hold fractional
    #: picoseconds (e.g. DRAM occupancy = bytes / bandwidth).
    exempt_suffixes = (
        "repro/sim/memory.py",
        "repro/host/calibration.py",
    )

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node, targets, value in _assignments(ctx):
            if value is None or not self._has_float_literal(value):
                continue
            for target in targets:
                # Instance state only (self.time_ps = ...): locals like
                # `max_time_ps` legitimately hold float bounds.
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr.endswith("_ps")
                ):
                    yield self.finding(
                        ctx, node,
                        f"float literal assigned into picosecond state "
                        f"'{target.attr}'; kernel time is integer ps — use "
                        "an int literal or move the constant to a "
                        "calibrated-constants module",
                    )
                    break

    @staticmethod
    def _has_float_literal(value: ast.expr) -> bool:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
        return False


#: The determinism rules also police ``obs`` — the trace/digest layer is
#: where unordered iteration corrupts fingerprints even though it does
#: not run inside the simulated clock domain.
DIGEST_LAYERS = SIM_LAYERS | frozenset({"obs"})

#: Call targets that read the identity of the hosting process.
PROCESS_IDENTITY_CALLS = frozenset({
    "os.getpid", "os.getppid",
    "multiprocessing.current_process",
    "threading.get_ident", "threading.get_native_id",
})


class UnorderedFlowRule(LintRule):
    rule_id = "F4T008"
    title = "unordered-into-digest"
    rationale = (
        "iteration order of dicts/sets is insertion- or hash-dependent; "
        "elements flowing into trace emits, digests, exchange outboxes or "
        "cross-process pickles must pass through sorted() or carry a "
        "total-order key, or merged fingerprints stop being "
        "worker-count-invariant"
    )
    layers = DIGEST_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        seen = set()
        for flow in ctx.dataflow.sink_flows():
            key = (flow.sink_node.lineno, flow.sink_kind, flow.origin,
                   flow.origin_line)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                ctx, flow.sink_node,
                f"value derived from unordered iteration over {flow.origin} "
                f"(line {flow.origin_line}) reaches a {flow.sink_kind} "
                "without a total order; iterate sorted(...) or key the "
                "consumer by a total order",
            )


class ProcessIdentityRule(LintRule):
    rule_id = "F4T009"
    title = "process-identity"
    rationale = (
        "sharded runs must produce identical digests from any worker "
        "layout; id(), os.getpid(), PYTHONHASHSEED-dependent hash() and "
        "default object repr/__hash__ all vary per process and poison sim "
        "state or fingerprints"
    )
    layers = DIGEST_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            func = node.func
            target = _first(ctx.imports.call_targets(func), PROCESS_IDENTITY_CALLS)
            if isinstance(func, ast.Name) and func.id == "id" and node.args:
                yield self.finding(
                    ctx, node,
                    "id() is a process-local address; derive a stable key "
                    "from the object's fields instead",
                )
            elif (
                isinstance(func, ast.Name)
                and func.id == "hash"
                and len(node.args) == 1
            ):
                yield self.finding(
                    ctx, node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED); use a seeded mix such as "
                    "repro.mem.sketch.mix64 or an explicit key encoding",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "__hash__":
                yield self.finding(
                    ctx, node,
                    "default object.__hash__ is the object address; define "
                    "a stable key instead",
                )
            elif target is not None:
                yield self.finding(
                    ctx, node,
                    f"{target}() reads process identity; it must not "
                    "influence sim state or digests",
                )
            # repr(...) of a sim object: flag when the repr feeds a byte
            # encoding or a digest/emit sink — that is where the default
            # object repr's embedded address leaks into fingerprints.
            elif self._repr_into_bytes(node):
                yield self.finding(
                    ctx, node,
                    "repr(...).encode() bakes the default object repr "
                    "(process-local address) into bytes; use a canonical "
                    "field encoding",
                )
            elif df.sink_kind_of(node, ctx.imports) is not None:
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "repr"
                            and sub.args
                        ):
                            yield self.finding(
                                ctx, sub,
                                "repr(...) inside a digest/emit sink; the "
                                "default object repr embeds a process-local "
                                "address — use a canonical field encoding",
                            )

    @staticmethod
    def _repr_into_bytes(node: ast.Call) -> bool:
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "encode"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "repr"
        )


#: Identifier fragments that mark a unique per-source tie-breaker.
_SEQ_HINTS = ("seq", "index", "idx", "counter", "gen", "tick", "serial")


def _is_seq_discriminator(node: ast.expr) -> bool:
    """An element that breaks ties with a unique per-source sequence."""
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in _SEQ_HINTS)


_HEAP_PUSHES = frozenset({"heapq.heappush", "heapq.heappushpop"})


class HeapKeyOrderRule(LintRule):
    rule_id = "F4T010"
    title = "non-total-order-key"
    rationale = (
        "heap and sort keys in admission paths must be totally ordered: "
        "floats tie-break unpredictably across platforms and payload "
        "objects without __lt__ raise (or compare by address) the moment "
        "two keys tie — shield payloads behind a unique sequence field"
    )
    layers = SIM_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        comparable = df.comparable_classes(ctx.nodes(ast.ClassDef))
        for node in ctx.nodes(ast.Call):
            heap = len(node.args) >= 2 and _first(
                ctx.imports.call_targets(node.func), _HEAP_PUSHES
            ) is not None
            sort_keys = [
                kw.value.body for kw in node.keywords
                if kw.arg == "key"
                and isinstance(kw.value, ast.Lambda)
                and isinstance(kw.value.body, ast.Tuple)
            ]
            if not heap and not sort_keys:
                continue
            # Checked once under each enclosing function's scope.
            parent = ctx.parents.get(node)
            while parent is not None:
                scope = ctx.scopes.get(cast(ast.FunctionDef, parent))
                parent = ctx.parents.get(parent)
                if scope is None:
                    continue
                key = self._tuple_of(node.args[1], scope) if heap else None
                if key is not None:
                    yield from self._check_key(
                        ctx, node, key, scope, comparable, "heap"
                    )
                for body in sort_keys:
                    yield from self._check_key(
                        ctx, node, body, scope, comparable, "sort"
                    )

    @staticmethod
    def _tuple_of(node: ast.expr, scope: df.Scope) -> Optional[ast.Tuple]:
        if isinstance(node, ast.Tuple):
            return node
        if isinstance(node, ast.Name):
            return scope.tuple_values.get(node.id)
        return None

    def _check_key(
        self,
        ctx: Module,
        call: ast.Call,
        key: ast.Tuple,
        scope: df.Scope,
        comparable: set,
        where: str,
    ) -> Iterator[Finding]:
        shielded = False
        for index, elt in enumerate(key.elts):
            kind = df.infer_kind(elt, scope)
            if kind == df.KIND_FLOAT and ctx.layer in CLOCKED_LAYERS:
                yield self.finding(
                    ctx, call,
                    f"float element at position {index} in a {where} key "
                    "tuple; picosecond keys are integers — floats "
                    "tie-break unpredictably",
                )
                continue
            if _is_seq_discriminator(elt):
                shielded = True
                continue
            if df.is_object_kind(kind):
                cls = df.object_class(kind)
                if cls in comparable:
                    continue
                last = index == len(key.elts) - 1
                if not last:
                    yield self.finding(
                        ctx, call,
                        f"payload object '{ast.unparse(elt)}' ({cls}) at "
                        f"position {index} of a {where} key tuple is "
                        "compared whenever earlier fields tie; move it "
                        "last behind a unique sequence field",
                    )
                elif not shielded:
                    yield self.finding(
                        ctx, call,
                        f"payload object '{ast.unparse(elt)}' ({cls}) in a "
                        f"{where} key tuple with no preceding sequence "
                        "discriminator; two equal keys will compare the "
                        "payload (TypeError or address order)",
                    )


#: Constructors whose results are mutable containers.
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque",
    "bytearray",
})


class MutableDefaultRule(LintRule):
    rule_id = "F4T011"
    title = "mutable-default"
    rationale = (
        "a mutable default argument is one shared object across every "
        "call; state accumulated in it bleeds between runs in-process and "
        "diverges across worker processes"
    )
    layers = SIM_LAYERS

    def check(self, ctx: Module) -> Iterator[Finding]:
        functions: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = [
            *ctx.nodes(ast.FunctionDef), *ctx.nodes(ast.AsyncFunctionDef)
        ]
        for node in functions:
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and construct inside the body",
                    )

    @staticmethod
    def _mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in _MUTABLE_CTORS
        return False


_RULES: List[LintRule] = [
    UnseededRandomRule(),
    WallClockRule(),
    RawSeqCompareRule(),
    UnguardedTraceRule(),
    StatsBypassRule(),
    FloatPsAccumulationRule(),
    FloatPsStateRule(),
    UnorderedFlowRule(),
    ProcessIdentityRule(),
    HeapKeyOrderRule(),
    MutableDefaultRule(),
]


def all_rules() -> List[LintRule]:
    return list(_RULES)
