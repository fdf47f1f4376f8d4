"""Intra-module dataflow for the determinism lint rules (F4T008/F4T010).

The original simlint rules are purely syntactic ("this call is a
wall-clock read").  The determinism rules added with the shard layer
need to know *where a value came from*: F4T008 flags unordered
iteration only when an element actually reaches a trace emit, digest
update, exchange outbox or cross-process pickle, and F4T010 must
classify heap-key tuple elements as scalars, floats or payload
objects.  This module is the shared, deliberately lightweight
machinery:

* **kind inference** for names — dict / set / ordered sequence / int /
  float / str / object — from literals, constructor calls, ``sorted()``
  and annotations (parameters, ``AnnAssign``, and ``self.x``
  assignments scanned class-wide);
* **taint tracking** from unordered-iteration targets through
  assignments, comprehensions, f-strings and container mutation down to
  sink call sites;
* **call-graph summaries**: which parameters of each module-local
  function (or method) flow into a sink, iterated to a fixpoint so a
  helper chain (``a() -> b() -> emit``) still counts as a sink at the
  outermost call.

Everything is intra-module and runs one forward pass per function; the
goal is catching the real hazards with few false positives, not
soundness.  ``sorted(...)`` is the one blessing that launders
unorderedness — ``list(d)`` deliberately does not, because it preserves
the dict's insertion order and with it the hazard.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - the index builds the dataflow
    from .index import ImportTable

# ----------------------------------------------------------------- kinds
KIND_DICT = "dict"
KIND_SET = "set"
KIND_ORDERED = "ordered"
KIND_INT = "int"
KIND_FLOAT = "float"
KIND_STR = "str"
KIND_UNKNOWN = "unknown"
#: Object kinds are ``object:ClassName`` so rules can consult the class.
_OBJECT_PREFIX = "object:"

_DICT_ANN = frozenset({
    "dict", "Dict", "DefaultDict", "defaultdict", "OrderedDict",
    "Mapping", "MutableMapping", "Counter",
})
_SET_ANN = frozenset({
    "set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet",
})
_ORDERED_ANN = frozenset({
    "list", "List", "tuple", "Tuple", "Sequence", "MutableSequence",
    "Deque", "deque", "Iterable", "Iterator",
})
_WRAPPER_ANN = frozenset({"Optional", "Final", "ClassVar", "Annotated"})

_DICT_CTORS = frozenset({"dict", "defaultdict", "OrderedDict", "Counter"})
_SET_CTORS = frozenset({"set", "frozenset"})
_ORDERED_CTORS = frozenset({"sorted", "deque"})
_INT_CTORS = frozenset({"int", "len", "ord"})
_FLOAT_CTORS = frozenset({"float"})
_STR_CTORS = frozenset({"str", "repr", "ascii", "format", "bytes"})
#: list()/tuple() preserve their argument's (possibly unordered) order.
_PASSTHROUGH_CTORS = frozenset({"list", "tuple", "iter", "reversed"})

_INT_OPS = (
    ast.FloorDiv, ast.Mod, ast.LShift, ast.RShift,
    ast.BitOr, ast.BitAnd, ast.BitXor,
)


def object_kind(name: str) -> str:
    return _OBJECT_PREFIX + name


def is_object_kind(kind: str) -> bool:
    return kind.startswith(_OBJECT_PREFIX)


def object_class(kind: str) -> str:
    return kind[len(_OBJECT_PREFIX):]


def annotation_kind(node: Optional[ast.expr]) -> str:
    """The kind named by a type annotation, unwrapping Optional & co."""
    if node is None:
        return KIND_UNKNOWN
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return KIND_UNKNOWN
        return annotation_kind(parsed.body)
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = _tail_name(base)
        if base_name in _WRAPPER_ANN:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_kind(inner)
        return annotation_kind(base)
    name = _tail_name(node)
    if name is None:
        return KIND_UNKNOWN
    if name in _DICT_ANN:
        return KIND_DICT
    if name in _SET_ANN:
        return KIND_SET
    if name in _ORDERED_ANN:
        return KIND_ORDERED
    if name == "int":
        return KIND_INT
    if name == "float":
        return KIND_FLOAT
    if name in ("str", "bytes"):
        return KIND_STR
    if name == "None" or name == "Any" or name == "object":
        return KIND_UNKNOWN
    if name[:1].isupper():
        return object_kind(name)
    return KIND_UNKNOWN


def _tail_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ----------------------------------------------------------------- scopes
@dataclass
class Scope:
    """Name kinds visible inside one function."""

    kinds: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` kinds, scanned class-wide.
    attr_kinds: Dict[str, str] = field(default_factory=dict)
    #: Names assigned a tuple literal in this function, for key checks.
    tuple_values: Dict[str, ast.Tuple] = field(default_factory=dict)

    def kind_of(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id, KIND_UNKNOWN)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self.attr_kinds.get(node.attr, KIND_UNKNOWN)
        return KIND_UNKNOWN


def infer_kind(node: ast.expr, scope: Scope) -> str:
    """Best-effort kind of an expression under ``scope``."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return KIND_DICT
    if isinstance(node, (ast.Set, ast.SetComp)):
        return KIND_SET
    if isinstance(node, (ast.List, ast.ListComp, ast.Tuple, ast.GeneratorExp)):
        return KIND_ORDERED
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return KIND_INT
        if isinstance(node.value, int):
            return KIND_INT
        if isinstance(node.value, float):
            return KIND_FLOAT
        if isinstance(node.value, (str, bytes)):
            return KIND_STR
        return KIND_UNKNOWN
    if isinstance(node, (ast.Name, ast.Attribute)):
        return scope.kind_of(node)
    if isinstance(node, ast.Call):
        func = node.func
        name = _tail_name(func)
        if isinstance(func, ast.Name) or isinstance(func, ast.Attribute):
            if name in _DICT_CTORS:
                return KIND_DICT
            if name in _SET_CTORS:
                return KIND_SET
            if name in _ORDERED_CTORS:
                return KIND_ORDERED
            if name in _INT_CTORS:
                return KIND_INT
            if name in _FLOAT_CTORS:
                return KIND_FLOAT
            if name in _STR_CTORS:
                return KIND_STR
            if name in _PASSTHROUGH_CTORS and node.args:
                inner = infer_kind(node.args[0], scope)
                if inner in (KIND_DICT, KIND_SET):
                    return inner  # order preserved, hazard preserved
                return KIND_ORDERED
            if name in ("items", "keys", "values") and isinstance(
                func, ast.Attribute
            ):
                return KIND_DICT  # a dict view is dict-ordered
            if name == "copy" and isinstance(func, ast.Attribute):
                return infer_kind(func.value, scope)
            if name is not None and name[:1].isupper():
                return object_kind(name)
        return KIND_UNKNOWN
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return KIND_FLOAT
        left = infer_kind(node.left, scope)
        right = infer_kind(node.right, scope)
        if isinstance(node.op, _INT_OPS):
            return KIND_INT
        if KIND_FLOAT in (left, right):
            return KIND_FLOAT
        if left == KIND_INT and right == KIND_INT:
            return KIND_INT
        return KIND_UNKNOWN
    if isinstance(node, ast.UnaryOp):
        return infer_kind(node.operand, scope)
    if isinstance(node, ast.IfExp):
        a = infer_kind(node.body, scope)
        b = infer_kind(node.orelse, scope)
        return a if a == b else KIND_UNKNOWN
    return KIND_UNKNOWN


def _class_attr_kinds(cls: ast.ClassDef) -> Dict[str, str]:
    """Kinds of ``self.<attr>`` assignments anywhere in one class."""
    kinds: Dict[str, str] = {}
    for node in ast.walk(cls):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        else:
            continue
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        kind = annotation_kind(annotation)
        if kind == KIND_UNKNOWN and value is not None:
            kind = infer_kind(value, Scope(attr_kinds=kinds))
        if kind != KIND_UNKNOWN and target.attr not in kinds:
            kinds[target.attr] = kind
    return kinds


def build_scope(
    func: ast.FunctionDef, attr_kinds: Optional[Dict[str, str]] = None
) -> Scope:
    """One pre-pass over a function: parameter and assignment kinds."""
    scope = Scope(attr_kinds=dict(attr_kinds or {}))
    args = func.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        kind = annotation_kind(arg.annotation)
        if kind != KIND_UNKNOWN:
            scope.kinds[arg.arg] = kind
    for node in ast.walk(func):
        target = None
        value: Optional[ast.expr] = None
        annotation = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        kind = annotation_kind(annotation)
        if kind == KIND_UNKNOWN and value is not None:
            kind = infer_kind(value, scope)
        if kind != KIND_UNKNOWN:
            scope.kinds.setdefault(target.id, kind)
        if isinstance(value, ast.Tuple):
            scope.tuple_values.setdefault(target.id, value)
    return scope


def iter_function_scopes(
    tree: ast.AST,
) -> Iterator[Tuple[ast.FunctionDef, Scope]]:
    """Every function in a module with its scope: the module-level ones,
    the methods of module-level classes (with the class-wide ``self.x``
    kinds) and every function nested in those."""
    for node in ast.iter_child_nodes(tree):
        tops: Sequence[ast.AST] = node.body if isinstance(node, ast.ClassDef) else [node]
        attr_kinds = _class_attr_kinds(node) if isinstance(node, ast.ClassDef) else None
        for top in tops:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for func in ast.walk(top):
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield func, build_scope(func, attr_kinds)


def comparable_classes(classes: Iterable[ast.ClassDef]) -> Set[str]:
    """The classes that define a total order (``__lt__`` or
    ``functools.total_ordering``)."""
    names: Set[str] = set()
    for node in classes:
        has_lt = any(
            isinstance(item, ast.FunctionDef) and item.name == "__lt__"
            for item in node.body
        )
        decorated = any(
            _tail_name(dec) == "total_ordering" for dec in node.decorator_list
            if isinstance(dec, (ast.Name, ast.Attribute))
        )
        if has_lt or decorated:
            names.add(node.name)
    return names


# --------------------------------------------------------------- iteration
def unordered_reason(node: ast.expr, scope: Scope) -> Optional[str]:
    """Why iterating ``node`` yields an unprovable order, or None.

    ``sorted(...)`` is the blessing; ``list()``/``tuple()``/``iter()``/
    ``enumerate()``/``reversed()`` see through to their argument.
    """
    if isinstance(node, ast.Call):
        name = _tail_name(node.func)
        if name == "sorted":
            return None
        if name in ("items", "keys", "values") and isinstance(
            node.func, ast.Attribute
        ):
            return f"dict .{name}() view"
        if name in ("list", "tuple", "iter", "enumerate", "reversed", "min",
                    "max"):
            if name in ("min", "max"):
                return None  # order-invariant reductions
            if node.args:
                return unordered_reason(node.args[0], scope)
            return None
        if name in _SET_CTORS:
            return "set()"
        kind = infer_kind(node, scope)
        if kind == KIND_SET:
            return "a set"
        if kind == KIND_DICT:
            return "a dict"
        return None
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, (ast.Name, ast.Attribute)):
        kind = scope.kind_of(node)
        if kind == KIND_SET:
            return f"set {ast.unparse(node)}"
        if kind == KIND_DICT:
            return f"dict {ast.unparse(node)}"
    return None


# ------------------------------------------------------------------- sinks
#: Receiver-name hints: the deepest identifier of the receiver chain.
_DIGEST_HINTS = ("digest", "sha", "fingerprint", "hasher")
_CHANNEL_HINTS = ("channel", "pipe", "sock", "queue", "conn")
_OUTBOX_HINTS = ("outbox", "exchange", "crosscell")
_MUTATORS = frozenset({
    "append", "extend", "add", "insert", "setdefault", "update", "push",
})


def _receiver_hint(func: ast.Attribute) -> str:
    """Lower-cased identifier chain of a call's receiver."""
    parts: List[str] = []
    base: ast.expr = func.value
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if isinstance(base, ast.Name):
        parts.append(base.id)
    elif isinstance(base, ast.Call):
        tail = _tail_name(base.func)
        if tail:
            parts.append(tail)
    return ".".join(reversed(parts)).lower()


_PICKLES = frozenset({"pickle.dumps", "pickle.dump", "marshal.dumps"})


def sink_kind_of(call: ast.Call, imports: ImportTable) -> Optional[str]:
    """What kind of sink ``call`` is, or None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        hint = _receiver_hint(func)
        if attr == "emit":
            return "trace emit"
        if attr == "update" and any(h in hint for h in _DIGEST_HINTS):
            return "digest update"
        if attr == "send" and any(h in hint for h in _CHANNEL_HINTS):
            return "cross-process send"
        if attr in ("append", "extend", "insert") and any(
            h in hint for h in _OUTBOX_HINTS
        ):
            return "exchange outbox"
    if _PICKLES.intersection(imports.call_targets(func)):
        return "pickle"
    return None


@dataclass(frozen=True)
class SinkFlow:
    """One unordered-iteration value reaching one sink call."""

    sink_node: ast.Call
    sink_kind: str
    origin: str  # human description of the unordered source
    origin_line: int


class ModuleDataflow:
    """Per-module driver: summaries first, then per-function flows."""

    def __init__(
        self, scopes: Dict[ast.FunctionDef, Scope], imports: ImportTable
    ) -> None:
        self.imports = imports
        #: function/method name -> parameter names that reach a sink.
        self.summaries: Dict[str, Set[str]] = {}
        #: function/method name -> positional parameter order (no self).
        self.signatures: Dict[str, List[str]] = {}
        self._functions = list(scopes.items())
        for func, _ in self._functions:
            args = func.args
            self.signatures.setdefault(func.name, [
                a.arg
                for a in args.posonlyargs + args.args
                if a.arg not in ("self", "cls")
            ])
        self._compute_summaries()

    # ------------------------------------------------------------ summaries
    def _compute_summaries(self) -> None:
        for _ in range(4):  # fixpoint over helper chains, tiny in practice
            changed = False
            for func, scope in self._functions:
                hits: Set[str] = set()
                args = func.args
                params = [
                    a.arg
                    for a in args.posonlyargs + args.args + args.kwonlyargs
                    if a.arg not in ("self", "cls")
                ]
                if not params:
                    continue
                taint = _TaintPass(
                    self, scope, seeds={name: {f"param:{name}"} for name in params}
                )
                taint.run(func)
                for flow_origins in taint.sink_origin_sets:
                    for origin in flow_origins:
                        if origin.startswith("param:"):
                            hits.add(origin[len("param:"):])
                if hits - self.summaries.get(func.name, set()):
                    self.summaries.setdefault(func.name, set()).update(hits)
                    changed = True
            if not changed:
                break

    # ---------------------------------------------------------------- flows
    def sink_flows(self) -> List[SinkFlow]:
        flows: List[SinkFlow] = []
        for func, scope in self._functions:
            taint = _TaintPass(self, scope, seeds={})
            taint.run(func)
            flows.extend(taint.flows)
        return flows

    def callee_name(self, call: ast.Call) -> Optional[str]:
        """Module-local callee name: ``helper(...)`` or ``self.helper(...)``."""
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
        return None


class _TaintPass:
    """One forward pass over a function body."""

    def __init__(
        self,
        module: ModuleDataflow,
        scope: Scope,
        seeds: Dict[str, Set[str]],
    ) -> None:
        self.module = module
        self.scope = scope
        #: name -> origin descriptions ("unordered:<desc>@<line>" or
        #: "param:<name>").
        self.tainted: Dict[str, Set[str]] = {k: set(v) for k, v in seeds.items()}
        self.flows: List[SinkFlow] = []
        self.sink_origin_sets: List[Set[str]] = []

    # --------------------------------------------------------------- driver
    def run(self, func: ast.FunctionDef) -> None:
        for stmt in func.body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analyzed separately
        if isinstance(stmt, ast.For):
            origins = self._expr_origins(stmt.iter)
            reason = unordered_reason(stmt.iter, self.scope)
            if reason is not None:
                origins = origins | {
                    f"unordered:{reason}@{stmt.iter.lineno}"
                }
            self._check_calls(stmt.iter)
            if origins:
                for name in _target_names(stmt.target):
                    self.tainted.setdefault(name, set()).update(origins)
            else:
                # An ordered loop rebinds its targets: clear stale taint
                # from an earlier unordered loop that reused the name.
                for name in _target_names(stmt.target):
                    self.tainted.pop(name, None)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._check_calls(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._check_calls(item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._check_calls(value)
                origins = self._expr_origins(value)
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for name in _target_names(target):
                        if origins:
                            self.tainted.setdefault(name, set()).update(origins)
                        elif isinstance(target, ast.Name) and not isinstance(
                            stmt, ast.AugAssign
                        ):
                            self.tainted.pop(name, None)  # strong update
            return
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._check_calls(stmt.value)
            return
        # Everything else (pass, raise, import, ...) carries no flows.

    # ---------------------------------------------------------------- taint
    def _expr_origins(self, expr: ast.expr) -> Set[str]:
        """Union of taint origins of every value feeding ``expr``."""
        origins: Set[str] = set()
        self._collect_origins(expr, origins)
        return origins

    #: Calls that launder unorderedness: order-invariant reductions and
    #: the blessings that impose (or discard) an order.
    _LAUNDER = frozenset({
        "sum", "min", "max", "len", "any", "all", "sorted", "set",
        "frozenset",
    })

    def _collect_origins(
        self,
        node: ast.AST,
        origins: Set[str],
        shadowed: frozenset = frozenset(),
    ) -> None:
        if isinstance(node, ast.Call) and _tail_name(node.func) in self._LAUNDER:
            return
        if isinstance(node, ast.Name):
            if node.id not in shadowed and node.id in self.tainted:
                origins |= self.tainted[node.id]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and f"self.{node.attr}" in self.tainted
        ):
            origins |= self.tainted[f"self.{node.attr}"]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            bound: Set[str] = set()
            for gen in node.generators:
                reason = unordered_reason(gen.iter, self.scope)
                # A set comp re-loses order anyway; flagging it would
                # double-report its own iteration.
                if reason is not None and not isinstance(node, ast.SetComp):
                    origins.add(f"unordered:{reason}@{gen.iter.lineno}")
                bound.update(_target_names(gen.target))
            # Comprehension targets rebind: the fresh names mask any
            # outer taint while we look inside.
            inner = frozenset(shadowed | bound)
            for child in ast.iter_child_nodes(node):
                self._collect_origins(child, origins, inner)
            return
        for child in ast.iter_child_nodes(node):
            self._collect_origins(child, origins, shadowed)

    def _check_calls(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._check_call(node)

    def _check_call(self, call: ast.Call) -> None:
        arg_origins: Set[str] = set()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            arg_origins |= self._expr_origins(arg)
        sink = sink_kind_of(call, self.module.imports)
        if sink is None:
            # Call-graph summaries: a module-local helper whose parameter
            # reaches a sink makes this call site a sink for the args
            # bound to those parameters.
            name = self.module.callee_name(call)
            params = self.module.summaries.get(name) if name else None
            if params:
                sig = self.module.signatures.get(name or "", [])
                forwarded: Set[str] = set()
                for index, arg in enumerate(call.args):
                    if index < len(sig) and sig[index] in params:
                        forwarded |= self._expr_origins(arg)
                for kw in call.keywords:
                    if kw.arg in params or kw.arg is None:
                        forwarded |= self._expr_origins(kw.value)
                if forwarded:
                    arg_origins = forwarded
                    sink = f"call to {name}() which forwards into a sink"
        if sink is not None and arg_origins:
            self.sink_origin_sets.append(arg_origins)
            for origin in sorted(arg_origins):
                if origin.startswith("unordered:"):
                    desc, _, line = origin[len("unordered:"):].rpartition("@")
                    self.flows.append(SinkFlow(
                        sink_node=call,
                        sink_kind=sink,
                        origin=desc,
                        origin_line=int(line),
                    ))
            return
        # Not a sink: container mutation propagates taint to receiver.
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and arg_origins
        ):
            base: ast.expr = func.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    self.tainted.setdefault(
                        f"self.{base.attr}", set()
                    ).update(arg_origins)
                    return
                base = base.value
            if isinstance(base, ast.Name):
                self.tainted.setdefault(base.id, set()).update(arg_origins)


def _target_names(target: ast.expr) -> List[str]:
    """Names bound (or mutated through subscript) by one assign target."""
    names: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.append(f"self.{node.attr}")
    return names
