"""Which constructor options does anything outside ``tests/`` ever set?

A value pass over :mod:`._reach`'s graph (its parsing and its name
resolution); nothing is imported.  A *knob* is an ``__init__``
parameter with a default or a dataclass field with a default.  A
``default_factory`` container and an ``init=False`` field are not
knobs, and neither is a dataclass field the package writes after
construction (``x.field = ...`` where ``x`` is annotated as, or built
by, its class; ``self.field = ...`` outside ``__init__`` and
``__post_init__``; or through any other owner when no other dataclass
has a field of that name): its default is a record's initial state.

A knob is *varied* when a counting caller (any code of the package
and the root files; never ``tests/``) passes it a value whose source
text differs from the default's: by keyword, by position, through
``dataclasses.replace`` or through ``functools.partial``.  These vary
it too:

* a ``*``/``**`` splat into its class (every knob of it);
* a ``"pkg.mod:Qual"`` string naming its class, which is how lab grids
  name their drivers (every knob of it);
* a ``cls(...)``, ``type(self)(...)`` or ``super().__init__(...)`` call
  resolving to its class, judged like any other call.

A value that is a parameter of the calling ``__init__`` or module-level
function, with the same default text and never reassigned there, is
forwarded: it varies the knob only when that parameter is varied in
turn.  A module-level function referenced other than by a call (a
handler, a callback, a registry entry, a string target) has every
parameter varied, since its callers cannot be seen.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ._reach import TARGET, Graph, _chain, _registry, build

Param = Tuple[str, str]  # (declaring callable key, parameter name)


@dataclass
class Signature:
    #: Parameters a call can bind by position, in order.
    positional: List[str] = field(default_factory=list)
    #: Every parameter: name -> (declaring key, default or None).
    params: Dict[str, Tuple[str, Optional[ast.expr]]] = field(default_factory=dict)
    #: Knobs: the parameters reported when never varied (classes only).
    knobs: Set[str] = field(default_factory=set)
    dataclass: bool = False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        chain = _chain(getattr(decorator, "func", decorator))
        if chain and chain[-1] == "dataclass":
            return True
    return False


def _field_call(value: Optional[ast.expr]) -> Optional[ast.Call]:
    if isinstance(value, ast.Call):
        chain = _chain(value.func)
        if chain and chain[-1] == "field":
            return value
    return None


def _function_params(key: str, node: ast.FunctionDef, skip_first: bool) -> Signature:
    sig = Signature()
    args = node.args
    positional = [*args.posonlyargs, *args.args][1 if skip_first else 0:]
    defaults: List[Optional[ast.expr]] = [None] * (len(positional) - len(args.defaults))
    defaults += args.defaults
    for arg, default in zip(positional, defaults):
        sig.positional.append(arg.arg)
        sig.params[arg.arg] = (key, default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        sig.params[arg.arg] = (key, default)
    return sig


def _src(node: Optional[ast.expr]) -> str:
    return ast.unparse(node) if node is not None else "?"


def _same(a: ast.expr, b: Optional[ast.expr]) -> bool:
    return b is not None and ast.dump(a) == ast.dump(b)


class KnobPass:
    def __init__(self, graph: Graph, trees: Dict[str, ast.Module]) -> None:
        self.graph = graph
        self.classes: Dict[str, ast.ClassDef] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        for module, tree in trees.items():
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self.classes[f"{module}:{stmt.name}"] = stmt
                elif isinstance(stmt, ast.FunctionDef):
                    self.functions[f"{module}:{stmt.name}"] = stmt
        self._sigs: Dict[str, Optional[Signature]] = {}
        self.varied: Set[Param] = set()
        #: (calling parameter, knob): the knob is varied if the caller's is.
        self.forwards: List[Tuple[Param, Param]] = []
        #: (class, attribute) written after construction: record state.
        self.stores: Set[Tuple[str, str]] = set()

    # -------------------------------------------------------- signatures
    def signature(self, key: str) -> Optional[Signature]:
        if key not in self._sigs:
            self._sigs[key] = None  # inheritance cycles end here
            self._sigs[key] = self._build_signature(key)
        return self._sigs[key]

    def _build_signature(self, key: str) -> Optional[Signature]:
        if key in self.functions:
            return _function_params(key, self.functions[key], skip_first=False)
        node = self.classes.get(key)
        if node is None:
            return None
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                sig = _function_params(key, stmt, skip_first=True)
                sig.knobs = {n for n, (_, d) in sig.params.items() if d is not None}
                return sig
        if not _is_dataclass(node):
            return self._base_signature(key)
        sig = Signature(dataclass=True)
        for base in reversed(self.graph.ancestors(key)):
            base_sig = self.signature(base)
            if base_sig is not None and base_sig.dataclass:
                for name in base_sig.positional:
                    if name not in sig.params:
                        sig.positional.append(name)
                    sig.params[name] = base_sig.params[name]
                sig.knobs |= base_sig.knobs
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            name, default, knob = stmt.target.id, stmt.value, stmt.value is not None
            call = _field_call(stmt.value)
            if call is not None:
                options = {kw.arg: kw.value for kw in call.keywords}
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                default = options.get("default")
                knob = default is not None
            if name not in sig.params:
                sig.positional.append(name)
            sig.params[name] = (key, default)
            sig.knobs.discard(name)
            if knob:
                sig.knobs.add(name)
        return sig

    def _base_signature(self, key: str) -> Optional[Signature]:
        for base in self.graph.ancestors(key):
            sig = self.signature(base)
            if sig is not None:
                return sig
        return None

    def dataclasses(self) -> Iterable[Signature]:
        for key, node in self.classes.items():
            sig = self.signature(key)
            if sig is not None and sig.dataclass:
                yield sig

    # ------------------------------------------------------------ calls
    def vary_all(self, sig: Signature) -> None:
        self.varied.update((declared, name) for name, (declared, _) in sig.params.items())

    def bind(self, sig: Signature, name: str, value: ast.expr, scope: "Scope") -> None:
        if name not in sig.params:
            return
        declared, default = sig.params[name]
        knob = (declared, name)
        if _same(value, default):
            return
        forwarded = scope.forwarded(value)
        if forwarded is not None and _same(forwarded[1], default):
            self.forwards.append((forwarded[0], knob))
        else:
            self.varied.add(knob)

    def call(self, sig: Signature, node: ast.Call, skip: int, scope: "Scope") -> None:
        args = node.args[skip:]
        if any(isinstance(a, ast.Starred) for a in args) or any(
            kw.arg is None for kw in node.keywords
        ):
            self.vary_all(sig)
            return
        for name, value in zip(sig.positional, args):
            self.bind(sig, name, value, scope)
        for kw in node.keywords:
            self.bind(sig, kw.arg, kw.value, scope)

    def targets(self, func: ast.expr, scope: "Scope") -> List[Signature]:
        if isinstance(func, ast.Name) and func.id == "cls" and scope.cls:
            keys = {scope.cls}
        elif (isinstance(func, ast.Call) and _chain(func.func) == ("type",)
              and scope.cls):
            keys = {scope.cls}
        elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
              and isinstance(func.value, ast.Call)
              and _chain(func.value.func) == ("super",) and scope.cls):
            sig = self._base_signature(scope.cls)
            return [sig] if sig is not None else []
        else:
            chain = _chain(func)
            keys = self.graph.resolve(scope.module, chain) if chain else set()
        return [s for s in map(self.signature, sorted(keys)) if s is not None]

    def is_named(self, func: ast.expr, module: str, *names: str) -> bool:
        """Is ``func`` ``dataclasses.replace``/``functools.partial`` (as named)?"""
        chain = _chain(func)
        if not chain or len(chain) > 2:
            return False
        wanted = {(m, n) for m in ("dataclasses", "functools") for n in names}
        for source, name in self.graph.modules[module].imports.get(chain[0], ()):
            if (source, name if len(chain) == 1 else chain[1]) in wanted:
                return True
        return False

    def visit_call(self, node: ast.Call, scope: "Scope") -> None:
        if self.is_named(node.func, scope.module, "replace") and node.args:
            receiver = node.args[0]
            if isinstance(receiver, ast.Name) and receiver.id == "self" and scope.cls:
                sigs = [s for s in [self.signature(scope.cls)] if s]
            else:
                sigs = list(self.dataclasses())
            for sig in sigs:
                self.call(sig, ast.Call(node.func, [], node.keywords), 0, scope)
            return
        if self.is_named(node.func, scope.module, "partial") and node.args:
            for sig in self.targets(node.args[0], scope):
                self.call(sig, node, 1, scope)
            return
        for sig in self.targets(node.func, scope):
            self.call(sig, node, 0, scope)

    def escape(self, key: str) -> None:
        """A callable whose callers cannot be seen: every parameter varied."""
        sig = self.signature(key)
        if sig is not None:
            self.vary_all(sig)

    # ---------------------------------------------------------- results
    def settle(self) -> None:
        changed = True
        while changed:
            changed = False
            for source, knob in self.forwards:
                if source in self.varied and knob not in self.varied:
                    self.varied.add(knob)
                    changed = True

    def is_state(self, key: str, name: str) -> bool:
        """Is dataclass field ``key.name`` written after construction?

        A write through an owner of no known class counts only when no
        other dataclass has a field of that name.
        """
        if ("", name) in self.stores:
            owners = [s for s in self.dataclasses() if name in s.params]
            if len(owners) == 1:
                return True
        return any(
            attr == name and (cls == key or key in self.graph.ancestors(cls))
            for cls, attr in self.stores if cls
        )

    def unvaried(self) -> List[str]:
        found = []
        for key in sorted(self.classes):
            sig = self.signature(key)
            if sig is None:
                continue
            for name in sorted(sig.knobs):
                declared, default = sig.params[name]
                if declared != key or (key, name) in self.varied:
                    continue
                if sig.dataclass and self.is_state(key, name):
                    continue
                found.append(f"{key}.{name} ({_src(default)})")
        return found


@dataclass
class Scope:
    module: str
    cls: Optional[str] = None
    #: The enclosing method or function (top level: "").
    method: str = ""
    #: Local name -> the classes its annotation or ``x = Cls(...)`` names.
    types: Dict[str, Set[str]] = field(default_factory=dict)
    #: The calling callable's key and its defaulted, never reassigned
    #: parameters (``__init__`` and module-level functions only).
    key: Optional[str] = None
    params: Dict[str, ast.expr] = field(default_factory=dict)

    def forwarded(self, value: ast.expr) -> Optional[Tuple[Param, ast.expr]]:
        if self.key and isinstance(value, ast.Name) and value.id in self.params:
            return (self.key, value.id), self.params[value.id]
        return None


def _scope_for(module: str, cls: Optional[str], node: ast.FunctionDef) -> Scope:
    scope = Scope(module, cls, node.name)
    if cls is None or node.name == "__init__":
        scope.key = cls or f"{module}:{node.name}"
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        stored = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        scope.params = {a.arg: d for a, d in pairs if a.arg not in stored}
    return scope


class _Walker(ast.NodeVisitor):
    """Feeds every call, reference and string in one module to the pass."""

    def __init__(self, knobs: KnobPass, module: str) -> None:
        self.knobs = knobs
        self.scope = Scope(module)
        self.depth = 0  # function nesting: a nested def keeps its outer scope
        self.funcs: Set[int] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self.scope
        if self.depth == 0 and outer.cls is None:
            self.scope = Scope(outer.module, f"{outer.module}:{node.name}")
        self.generic_visit(node)
        self.scope = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self.scope
        if self.depth == 0:
            if outer.cls is None and any(map(_registry, node.decorator_list)):
                self.knobs.escape(f"{outer.module}:{node.name}")
            self.scope = _scope_for(outer.module, outer.cls, node)
            self.scope.types = self._types(node)
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        self.funcs.add(id(node.func))
        self.knobs.visit_call(node, self.scope)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._reference(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._reference(node)
        self.generic_visit(node)

    def _classes(self, expr: ast.expr) -> Set[str]:
        """The package classes an annotation or a constructor call names."""
        found: Set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    found |= self._classes(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    pass
            elif isinstance(node, (ast.Name, ast.Attribute)):
                chain = _chain(node)
                if chain:
                    found |= set(self.knobs.graph.resolve(self.scope.module, chain))
        return found & set(self.knobs.classes)

    def _types(self, node: ast.FunctionDef) -> Dict[str, Set[str]]:
        types: Dict[str, Set[str]] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                types.setdefault(arg.arg, set()).update(self._classes(arg.annotation))
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                types.setdefault(sub.target.id, set()).update(self._classes(sub.annotation))
            elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                func = sub.value.func
                made = ({self.scope.cls} if _chain(func) == ("cls",) and self.scope.cls
                        else self._classes(func))
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, set()).update(made)
        return types

    def _store(self, node: ast.Attribute) -> None:
        owner, scope = node.value, self.scope
        if isinstance(owner, ast.Name) and owner.id == "self" and scope.cls:
            if scope.key != scope.cls and scope.method != "__post_init__":
                self.knobs.stores.add((scope.cls, node.attr))
            return
        types = scope.types.get(owner.id) if isinstance(owner, ast.Name) else None
        for cls in types or [""]:  # "": of no known class, so of any
            self.knobs.stores.add((cls, node.attr))

    def _reference(self, node: ast.expr) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            self._store(node)
        if id(node) in self.funcs or not isinstance(getattr(node, "ctx", None), ast.Load):
            return
        chain = _chain(node)
        if chain:
            for key in self.knobs.graph.resolve(self.scope.module, chain):
                if key in self.knobs.functions:
                    self.knobs.escape(key)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and TARGET.match(node.value):
            for key in self.knobs.graph.resolve_target(node.value):
                self.knobs.escape(key)


def build_knobs(src: Path, package: str, root_files: Iterable[Path]) -> KnobPass:
    """Parse ``src/<package>`` and the root files; find the unvaried knobs."""
    root_files = list(root_files)
    graph = build(src, package, root_files)
    trees: Dict[str, ast.Module] = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        trees[name] = ast.parse(path.read_text(), str(path))
    knobs = KnobPass(graph, trees)
    callers = dict(trees)
    callers.update((f"<root>{p}", ast.parse(p.read_text(), str(p))) for p in root_files)
    for module, tree in callers.items():
        _Walker(knobs, module).visit(tree)
    knobs.settle()
    return knobs
