"""Which options does anything outside ``tests/`` ever set?

A value pass over :mod:`._reach`'s graph (the program index's trees,
the graph's name resolution and its receiver types); nothing is
imported.  A *knob* is a parameter with a default of a module-level
function, of a method or of an ``__init__``, or a dataclass field with
a default.  A ``default_factory`` container and an ``init=False`` field
are not knobs, and neither is a dataclass field the package writes
after construction (``x.field = ...`` where ``x`` is typed as its class
or a subclass; ``self.field = ...`` outside ``__init__`` and
``__post_init__``; or through an untyped owner when no other dataclass
has a field of that name): its default is a record's initial state.
Dunder methods come with their class and have no knobs of their own.

A knob is *varied* when a counting caller (any code of the package
and the root files; never ``tests/``) passes it a value whose source
text differs from the default's: by keyword, by position, through
``dataclasses.replace`` (binding the fields of the typed receiver's
class and subclasses, or of every dataclass when it is untyped) or
through ``functools.partial``.  A call through an attribute that names
no package unit (``x.run(...)``, ``self.run(...)``) binds what
:mod:`._reach` resolves it to by the receiver's type, read off the
program index's type table: ``run`` of the receiver's class (or its
first base defining it) and of every subclass defining it.  Only an
untyped receiver is matched by name: it binds every method of that
name.  These vary it too:

* a ``*``/``**`` splat into its callable (every knob of it);
* a ``"pkg.mod:Qual"`` string naming its callable (every knob of it),
  except a lab grid's ``driver=``: the grid calls its driver with its
  ``base`` values, each element of a literal ``domains`` list and a
  ``seed`` per ``seeds`` entry, and those are the values bound;
* a ``cls(...)``, ``type(self)(...)`` or ``super().__init__(...)`` call
  resolving to its class, judged like any other call.

A value that is a parameter of the calling function or method, with the
same default text and never reassigned there, is forwarded: it varies
the knob only when that parameter is varied in turn.  A function or
method used other than by a call (a handler, a callback, a registry
entry, ``getattr(x, "name")``, a string target) has every parameter
varied, since its callers cannot be seen; for a method that is what
its receiver's type resolves it to, or every method of that name when
the receiver is untyped (and always for ``getattr``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check import dataflow as df
from repro.check.index import Module

from ._reach import TARGET, Graph, _chain, _registry, build, receiver

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


def _decorated(node: ast.FunctionDef, name: str) -> bool:
    return any(_chain(d) == (name,) for d in node.decorator_list)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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
    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.classes: Dict[str, ast.ClassDef] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: Methods (dunders come with their class), and their keys by name.
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.by_name: Dict[str, List[str]] = {}
        for module, indexed in graph.modules.items():
            if module.startswith("<root>"):
                continue
            for stmt in indexed.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    key = f"{module}:{stmt.name}"
                    self.classes[key] = stmt
                    for sub in stmt.body:
                        if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                            self.methods[f"{key}.{sub.name}"] = sub
                            self.by_name.setdefault(sub.name, []).append(f"{key}.{sub.name}")
                elif isinstance(stmt, ast.FunctionDef):
                    self.functions[f"{module}:{stmt.name}"] = stmt
        self._sigs: Dict[str, Optional[Signature]] = {}
        self.varied: Set[Param] = set()
        #: (calling parameter, knob): the knob is varied if the caller's is.
        self.forwards: List[Tuple[Param, Param]] = []
        #: (class, attribute) written after construction: record state.
        self.stores: Set[Tuple[str, str]] = set()
        #: ``driver=`` strings a grid binds: they do not escape.
        self.grid_strings: Set[int] = set()
        self.escaped: Set[str] = set()

    # -------------------------------------------------------- signatures
    def signature(self, key: str) -> Optional[Signature]:
        if key not in self._sigs:
            self._sigs[key] = None  # inheritance cycles end here
            self._sigs[key] = self._build_signature(key)
        return self._sigs[key]

    def _build_signature(self, key: str) -> Optional[Signature]:
        function = self.functions.get(key) or self.methods.get(key)
        if function is not None:
            static = key in self.functions or _decorated(function, "staticmethod")
            sig = _function_params(key, function, skip_first=not static)
            sig.knobs = {n for n, (_, d) in sig.params.items() if d is not None}
            return sig
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
            if not keys and isinstance(func, ast.Attribute):
                keys = self.callees(func, scope)
        return [s for s in map(self.signature, sorted(keys)) if s is not None]

    def callees(self, node: ast.Attribute, scope: "Scope") -> Set[str]:
        """The methods ``node`` names: by its receiver's type, or every
        method of that name when the receiver is untyped."""
        typed = receiver(node.value, scope.table, scope.cls)
        found = self.graph.methods(scope.module, typed, node.attr) if typed else None
        return set(self.by_name.get(node.attr, ())) if found is None else found

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
        if _chain(node.func) in (("getattr",), ("hasattr",)) and len(node.args) > 1:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.escape_named(name.value)
        driver = next((kw.value for kw in node.keywords if kw.arg == "driver"), None)
        if isinstance(driver, ast.Constant) and isinstance(driver.value, str):
            self.grid_strings.add(id(driver))
            for key in self.graph.resolve_target(driver.value):
                sig = self.signature(key)
                if sig is not None:
                    self.grid(sig, node, scope)
        if self.is_named(node.func, scope.module, "replace") and node.args:
            classes = self.classes_of(node.args[0], scope)
            if classes:  # the receiver's class or any subclass
                owners = {k for c in classes for k in (c, *self.graph.subclasses(c))}
                sigs = [s for s in map(self.signature, sorted(owners)) if s]
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

    def grid(self, sig: Signature, node: ast.Call, scope: "Scope") -> None:
        """Bind a lab grid's driver to the grid's literal parameter values.

        Every ``base`` value and every element of a literal ``domains``
        list is one call's value; ``seeds`` (unless ``None``) varies
        ``seed``; anything not spelled out literally varies every knob.
        """
        options = {kw.arg: kw.value for kw in node.keywords}
        values: List[Tuple[str, ast.expr]] = []
        for option in ("base", "domains", "points"):
            table = options.get(option)
            if table is None:
                continue
            tables = table.elts if option == "points" and isinstance(table, ast.List) else [table]
            for entry in tables:
                if not isinstance(entry, ast.Dict) or not all(
                    isinstance(k, ast.Constant) for k in entry.keys
                ):
                    self.vary_all(sig)
                    return
                for name, value in zip(entry.keys, entry.values):
                    many = option == "domains" and isinstance(value, (ast.List, ast.Tuple))
                    values += [(name.value, v) for v in (value.elts if many else [value])]
        seeds = options.get("seeds")
        if seeds is not None and not (isinstance(seeds, ast.Constant) and seeds.value is None):
            values.append(("seed", seeds))
        for name, value in values:
            self.bind(sig, name, value, scope)

    def escape(self, key: str) -> None:
        """A callable whose callers cannot be seen: every parameter varied."""
        if key in self.escaped:
            return
        self.escaped.add(key)
        sig = self.signature(key)
        if sig is not None:
            self.vary_all(sig)

    def classes_of(self, owner: ast.expr, scope: "Scope") -> Optional[List[str]]:
        """The package classes ``owner`` is typed as, None when untyped."""
        typed = receiver(owner, scope.table, scope.cls)
        return self.graph.receiver_classes(scope.module, typed) if typed else None

    def escape_named(self, name: str) -> None:
        """A method used other than by a call: every method of that name."""
        for key in self.by_name.get(name, ()):
            self.escape(key)

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
        for key in sorted([*self.functions, *self.methods]):
            sig = self.signature(key)
            for name in sorted(sig.knobs):
                if (key, name) not in self.varied:
                    found.append(f"{key}({name}=) ({_src(sig.params[name][1])})")
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
    #: The innermost function's type table (the program index's scope).
    table: Optional[df.Scope] = None
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
    if cls is None or not _dunder(node.name) or node.name == "__init__":
        scope.key = (f"{module}:{node.name}" if cls is None
                     else cls if node.name == "__init__" else f"{cls}.{node.name}")
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if pairs:
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
        table = self.knobs.graph.modules[outer.module].scopes.get(node)
        if self.depth == 0:
            if outer.cls is None and any(map(_registry, node.decorator_list)):
                self.knobs.escape(f"{outer.module}:{node.name}")
            self.scope = _scope_for(outer.module, outer.cls, node)
            self.scope.table = table
        else:
            self.scope = replace(outer, table=table)
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

    def _store(self, node: ast.Attribute) -> None:
        owner, scope = node.value, self.scope
        if isinstance(owner, ast.Name) and owner.id == "self" and scope.cls:
            if scope.key != scope.cls and scope.method != "__post_init__":
                self.knobs.stores.add((scope.cls, node.attr))
            return
        for cls in self.knobs.classes_of(owner, scope) or [""]:  # "": of any class
            self.knobs.stores.add((cls, node.attr))

    def _reference(self, node: ast.expr) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            self._store(node)
        if id(node) in self.funcs or not isinstance(getattr(node, "ctx", None), ast.Load):
            return
        chain = _chain(node)
        keys = self.knobs.graph.resolve(self.scope.module, chain) if chain else set()
        if not keys and isinstance(node, ast.Attribute):
            keys = self.knobs.callees(node, self.scope)
        for key in keys:
            if key in self.knobs.functions or key in self.knobs.methods:
                self.knobs.escape(key)

    def visit_Constant(self, node: ast.Constant) -> None:
        if id(node) in self.knobs.grid_strings:
            return
        if isinstance(node.value, str) and TARGET.match(node.value):
            for key in self.knobs.graph.resolve_target(node.value):
                self.knobs.escape(key)


def build_knobs(index: Dict[str, Module], package: str, root_files: Iterable[Path]) -> KnobPass:
    """Find the unvaried knobs of ``package``, callers being it and the root files."""
    knobs = KnobPass(build(index, package, root_files))
    for name, module in knobs.graph.modules.items():
        _Walker(knobs, name).visit(module.tree)
    knobs.settle()
    return knobs
