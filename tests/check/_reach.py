"""Which functions, classes, methods and module-level names of a package
does anything outside ``tests/`` reach?

An AST walk over the program index (:mod:`repro.check.index`: its trees
and its import tables); nothing is imported.  Units are module-level
functions and classes, their methods, module-level assignments
(``NAME = ...``) and each module's own top-level code (key ``"mod:"``).
Edges:

* a name or attribute chain, resolved through imports.  An ``__init__``
  re-export is followed, never counted as a use;
* a ``"pkg.mod:Qual.name"`` string, anywhere in a reached unit or a root
  file: how ``lab/grids.py`` names its drivers and ``bench/spans.py``
  its span targets (``Qual+.name`` adds every subclass defining it);
* a ``@register...`` decorator: the entry is reached with the module
  that holds the registry (the decorator's own module), since a lookup
  there is how anything finds it.

A method call resolves by its receiver's type, read off the program
index's one type table (each function's :class:`repro.check.dataflow.Scope`:
an annotation, a constructor assignment, a class-wide ``self.x``
assignment, a call's result, each only when every binding of the name
agrees) or off the receiver itself: ``self``/``cls`` is the enclosing
class, ``super()`` its bases, a name chain naming a class that class, a
module-level name what its annotation or constructor says.  A call's
result is what the callee builds or its return annotation names.  An
attribute of a typed receiver is typed by the class-wide assignments of
its class, its bases and its subclasses (``self.wire.send`` is
``Wire.send`` where ``self.wire = Wire()`` is the one binding).  A
reached ``x.foo`` on a receiver of class ``T`` reaches the first ``foo``
in ``T`` and its bases (``B(A[int])`` has the base ``A``), and the
``foo`` of every reached subclass of ``T``; a module, an outside import
or a builtin value reaches no method.  Only an untyped receiver (and
``getattr(x, "foo")``) is matched by name: it reaches the ``foo`` of
every reached class, once nothing typed is left to reach
(:attr:`Graph.by_name` is what that adds).  A method overriding a
reached base method is reached; dunders come with their class, and
``__all__`` with its module.  A reached method reaches its class, a
reached unit its module's top-level code.

Roots are whole files (every line of them counts: ``bench/``,
``benchmarks/``, ``examples/``) and unit keys (the CLI handlers).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.check import dataflow as df
from repro.check.index import Module

#: ``mod:Qual``, ``mod:Qual.method``, ``mod:Qual+.method``, ``mod:DICT[key]``.
TARGET = re.compile(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)(\+?)(?:\.([A-Za-z_]\w*))?")

Chain = Tuple[str, ...]
#: A method call's receiver: ``("class", key)`` (``self``/``cls`` in that
#: class), ``("super", key)``, ``("chain", *names)`` (a name chain as
#: written, resolved in the caller's module), ``("of", *names)`` (an
#: instance of the class so named), ``("returns", *names)`` (what calling
#: the name chain returns), ``("attr", name, receiver)`` (an attribute of
#: another receiver), ``("result", name, receiver)`` (what its method
#: ``name`` returns) or ``("none",)`` (a builtin value).
Receiver = Tuple[Any, ...]


@dataclass
class Unit:
    key: str
    kind: str  # function | class | method | data | module | root
    module: str
    lines: int = 0
    refs: Set[Chain] = field(default_factory=set)
    attrs: Set[str] = field(default_factory=set)
    typed: Set[Tuple[Receiver, str]] = field(default_factory=set)
    strings: Set[str] = field(default_factory=set)
    imports: Set[str] = field(default_factory=set)
    bases: List[Chain] = field(default_factory=list)
    entries: List[str] = field(default_factory=list)
    #: The class a function or method is annotated to return, or a
    #: module-level name is bound to (its annotation or constructor).
    value_type: Optional[Receiver] = None


def _chain(node: ast.expr) -> Optional[Chain]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def _base(node: ast.expr) -> Optional[Chain]:
    """A class base's name chain: ``Sanitizer[RaceFinding]`` is ``Sanitizer``."""
    return _chain(node.value if isinstance(node, ast.Subscript) else node)


def _annotations(node: ast.AST) -> Iterable[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _kind(kind: str) -> Optional[Receiver]:
    """A type table kind as a receiver: a builtin kind is ``("none",)``."""
    if df.is_object_kind(kind):
        return ("of", *kind.partition(":")[2].split("."))
    return None if kind == df.KIND_UNKNOWN else ("none",)


def receiver(expr: ast.expr, scope: Optional[df.Scope], cls: Optional[str]) -> Optional[Receiver]:
    """The type of a method call's receiver, or None when it has none.

    ``scope`` is the type table of the function holding the call, ``cls``
    the class ``self`` is in it.  A call's result is typed by what it
    calls: a class, or a function or method with a return annotation.
    """
    if isinstance(expr, ast.Call):
        callee = _chain(expr.func)
        if callee == ("super",):
            return ("super", cls) if cls else None
        return _result(callee, scope, cls, 0) if callee else None
    chain = _chain(expr)
    return _typed(chain, scope, cls, 0) if chain else None


def _typed(chain: Chain, scope: Optional[df.Scope], cls: Optional[str],
           depth: int) -> Optional[Receiver]:
    root = chain[0]
    if root in ("self", "cls"):
        typed: Optional[Receiver] = ("class", cls) if cls else None
    elif scope is None or not (root in scope.untyped or root in scope.kinds
                               or root in scope.calls):
        return ("chain", *chain)  # a module-level or imported name
    elif root in scope.untyped or depth > 4:
        return None
    elif root in scope.kinds:
        typed = _kind(scope.kinds[root])
    else:
        typed = _result(tuple(scope.calls[root].split(".")), scope, cls, depth + 1)
    for name in chain[1:]:
        typed = ("attr", name, typed) if typed and typed[0] != "none" else None
    return typed


def _result(callee: Chain, scope: Optional[df.Scope], cls: Optional[str],
            depth: int) -> Optional[Receiver]:
    """The type of what a call of ``callee`` returns (its annotation)."""
    if len(callee) == 1:
        return ("returns", *callee)
    owner = _typed(callee[:-1], scope, cls, depth)
    if owner is None or owner[0] == "none":
        return None
    return ("returns", *callee) if owner[0] == "chain" else ("result", callee[-1], owner)


class _Collector:
    """Adds what trees name to one unit, each attribute with its receiver."""

    def __init__(self, unit: Unit, module: Optional[Module], cls: Optional[str]) -> None:
        self.unit, self.module, self.cls = unit, module, cls

    def collect(self, trees: Iterable[ast.AST], function: Optional[ast.AST] = None) -> None:
        scope = self.module.scopes.get(function) if self.module and function else None
        self._walk(list(trees), scope, self.cls)

    def _walk(self, todo: List[ast.AST], scope: Optional[df.Scope], cls: Optional[str]) -> None:
        unit = self.unit
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    unit.refs.add((node.id,))
                continue
            if isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain:
                    unit.refs.add(chain)
                if not isinstance(node.ctx, ast.Store):
                    typed = receiver(node.value, scope, cls)
                    if typed is None:
                        unit.attrs.add(node.attr)
                    else:
                        unit.typed.add((typed, node.attr))
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str) and TARGET.match(node.value):
                    unit.strings.add(node.value)
                continue
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("getattr", "hasattr") and len(node.args) > 1:
                    name = node.args[1]
                    if isinstance(name, ast.Constant) and isinstance(name.value, str):
                        unit.attrs.add(name.value)
            elif isinstance(node, ast.Import):
                unit.imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                unit.imports.add(node.module or "")
            elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
                for ann in _annotations(node):  # quoted annotations name classes too
                    for text in ast.walk(ann):
                        if isinstance(text, ast.Constant) and isinstance(text.value, str):
                            try:
                                todo.append(ast.parse(text.value, mode="eval"))
                            except SyntaxError:
                                pass
                if not isinstance(node, (ast.arg, ast.AnnAssign)) and self.module:
                    # a nested function: its own type table
                    self._walk(list(ast.iter_child_nodes(node)), self.module.scopes.get(node), cls)
                    continue
            elif isinstance(node, ast.ClassDef):
                # a nested class: ``self`` is not the outer class
                self._walk(list(ast.iter_child_nodes(node)), scope, None)
                continue
            todo.extend(ast.iter_child_nodes(node))


def _span(node: ast.AST) -> int:
    return (getattr(node, "end_lineno", None) or node.lineno) - node.lineno + 1


def _registry(decorator: ast.expr) -> Optional[Chain]:
    """The decorator's name chain when it registers (``@register...``)."""
    chain = _chain(getattr(decorator, "func", decorator))
    return chain if chain and chain[-1].startswith("register") else None


class Graph:
    def __init__(self) -> None:
        #: name -> module: the package's dotted names and ``<root>path``.
        self.modules: Dict[str, Module] = {}
        self.units: Dict[str, Unit] = {}
        self.reached: Set[str] = set()
        #: Attribute names read through an untyped receiver.
        self.attrs: Set[str] = set()
        #: (class, name): ``name`` called on a receiver of that class.
        self.called: Set[Tuple[str, str]] = set()
        #: Methods reached only by the untyped name match.
        self.by_name: Set[str] = set()
        #: class -> its type table (a method's scope: the class-wide kinds).
        self.tables: Dict[str, df.Scope] = {}
        self._ancestors: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        self._classes: Dict[Tuple[str, Receiver], Optional[List[str]]] = {}
        #: (module, decorator chain, entry key) for each ``@register...``
        self._entries: List[Tuple[str, Chain, str]] = []

    # ------------------------------------------------------------ parsing
    def add_module(self, module: Module) -> None:
        name = module.name
        self.modules[name] = module
        top = _Collector(self._unit(f"{name}:", "module", name), module, None)
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = f"{name}:{stmt.name}"
                top.collect(stmt.decorator_list)
                self._entries.extend(
                    (name, chain, key)
                    for chain in map(_registry, stmt.decorator_list) if chain
                )
                if isinstance(stmt, ast.ClassDef):
                    self._add_class(key, stmt, module)
                else:
                    unit = self._unit(key, "function", name, _span(stmt))
                    unit.value_type = _kind(df.annotation_kind(stmt.returns, module.package_classes))
                    _Collector(unit, module, None).collect(
                        [stmt.args, *stmt.body, *_annotations(stmt)], stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                for local in names:  # ``__all__`` is its module's own code
                    rebound = f"{name}:{local}" in self.units
                    unit = top.unit if local == "__all__" else self._unit(
                        f"{name}:{local}", "data", name, _span(stmt))
                    _Collector(unit, module, None).collect([stmt])
                    if len(targets) == 1 and isinstance(targets[0], ast.Name) and not rebound:
                        unit.value_type = _kind(
                            df.annotation_kind(stmt.annotation, module.package_classes)
                            if isinstance(stmt, ast.AnnAssign)
                            else df.infer_kind(stmt.value, df.Scope(classes=module.package_classes)))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                top.collect([stmt])

    def _add_class(self, key: str, node: ast.ClassDef, module: Module) -> None:
        unit = self._unit(key, "class", module.name, _span(node))
        unit.bases = [c for c in map(_base, node.bases) if c]
        body = _Collector(unit, module, key)
        body.collect([*node.bases, *node.keywords])
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.tables.setdefault(key, module.scopes[stmt])
                method = self._unit(f"{key}.{stmt.name}", "method", module.name, _span(stmt))
                method.value_type = _kind(df.annotation_kind(stmt.returns, module.package_classes))
                body.collect(stmt.decorator_list)
                _Collector(method, module, key).collect(
                    [stmt.args, *stmt.body, *_annotations(stmt)], stmt)
            else:
                body.collect([stmt])

    def _unit(self, key: str, kind: str, module: str, lines: int = 0) -> Unit:
        unit = self.units[key] = Unit(key, kind, module, lines)
        return unit

    def add_root_file(self, module: Module) -> str:
        """Every line of ``module`` is a root; returns the root unit's key."""
        name = f"<root>{module.path}"
        self.modules[name] = module
        _Collector(self._unit(f"{name}:", "root", name), module, None).collect([module.tree])
        return f"{name}:"

    # --------------------------------------------------------- resolving
    def resolve(self, module: str, chain: Chain) -> Set[str]:
        if f"{module}:{chain[0]}" in self.units:
            return self._in_module(module, list(chain))
        found: Set[str] = set()
        for source, name in self.modules[module].imports.get(chain[0], ()):
            found |= self._in_module(source, ([name] if name else []) + list(chain[1:]))
        return found

    def _in_module(self, module: str, parts: List[str], depth: int = 0) -> Set[str]:
        if module not in self.modules or depth > 20:
            return set()
        if not parts:
            return {f"{module}:"}
        key = f"{module}:{parts[0]}"
        if key in self.units:
            method = f"{key}.{parts[1]}" if len(parts) > 1 else ""
            return {method} if method in self.units else {key}
        found: Set[str] = set()
        for source, name in self.modules[module].imports.get(parts[0], ()):
            found |= self._in_module(source, ([name] if name else []) + parts[1:], depth + 1)
        submodule = f"{module}.{parts[0]}"
        return found or self._in_module(submodule, parts[1:], depth + 1)

    def resolve_target(self, text: str) -> Set[str]:
        match = TARGET.match(text)
        if not match:
            return set()
        module, qual, plus, method = match.groups()
        found = self._in_module(module, [qual] + ([method] if method else []))
        if plus and method:
            for cls in self.subclasses(f"{module}:{qual}"):
                if f"{cls}.{method}" in self.units:
                    found.add(f"{cls}.{method}")
        return found

    def ancestors(self, key: str) -> List[str]:
        if key in self._ancestors:
            return self._ancestors[key]
        seen: List[str] = []
        self._ancestors[key] = seen
        todo = [key]
        while todo:
            unit = self.units[todo.pop()]
            for chain in unit.bases:
                for base in self.resolve(unit.module, chain):
                    if base not in seen and self.units[base].kind == "class":
                        seen.append(base)
                        todo.append(base)
        return seen

    def subclasses(self, key: str) -> List[str]:
        if key not in self._subclasses:
            self._subclasses[key] = [k for k, u in self.units.items()
                                     if u.kind == "class" and key in self.ancestors(k)]
        return self._subclasses[key]

    def receiver_classes(self, module: str, typed: Receiver) -> Optional[List[str]]:
        """The package classes a receiver is, ``[]`` for a module, an outside
        import or a builtin value, None when its type is unknown."""
        if (module, typed) not in self._classes:
            self._classes[module, typed] = None  # a cycle of attributes is untyped
            self._classes[module, typed] = self._receiver_classes(module, typed)
        return self._classes[module, typed]

    def _receiver_classes(self, module: str, typed: Receiver) -> Optional[List[str]]:
        mode = typed[0]
        if mode in ("class", "super"):
            return [typed[1]] if typed[1] in self.units else None  # a root file's class
        if mode == "none":
            return []
        if mode == "attr":
            return self._attr_classes(module, typed[2], typed[1])
        if mode == "result":  # an outside method or a callable attribute: unknown
            methods = self.methods(module, typed[2], typed[1])
            return self._returned(methods, True) if methods else None
        found = self.resolve(module, typed[1:])
        exact = bool(found) and all(  # the chain's own unit: ``Cls.attr`` resolves to ``Cls``
            len(typed) == 2 or re.split("[:.]", k)[-1] == typed[-1] for k in found)
        if mode in ("of", "returns"):
            return self._returned(found, True) if exact else None
        if exact and all(self.units[k].kind in ("class", "data") for k in found):
            return self._returned(found, False)
        if found and all(self.units[k].kind == "module" for k in found):
            return []
        bindings = self.modules[module].imports.get(typed[1], ())
        if not found and bindings and all(source not in self.modules for source, _ in bindings):
            return []
        return None

    def _returned(self, keys: Iterable[str], called: bool) -> Optional[List[str]]:
        """The classes what ``keys`` name is: a class itself or what it
        builds, what a called function or method returns (its annotation),
        what a module-level name holds; None when one is untyped."""
        found: Set[str] = set()
        for key in keys:
            unit = self.units[key]
            if unit.kind == "class":
                found.add(key)
                continue
            typed = unit.value_type if (unit.kind == "data") != called else None
            classes = self.receiver_classes(unit.module, typed) if typed else None
            if classes is None:
                return None
            found.update(classes)
        return sorted(found)

    def _attr_classes(self, module: str, owner: Receiver, name: str) -> Optional[List[str]]:
        """The classes attribute ``name`` of ``owner`` is: what every class
        ``owner`` can be, its bases and subclasses assign ``self.name``."""
        owners = self.receiver_classes(module, owner)
        if not owners:  # an outside object's attribute is unknown too
            return None
        found: Set[str] = set()
        attr = f"self.{name}"
        for cls in owners:
            known = False
            for holder in [cls, *self.ancestors(cls), *self.subclasses(cls)]:
                table = self.tables.get(holder)
                if table is None or attr not in table.untyped and name not in table.attr_kinds:
                    continue
                kind = None if attr in table.untyped else _kind(table.attr_kinds[name])
                classes = self.receiver_classes(self.units[holder].module, kind) if kind else None
                if classes is None:
                    return None
                found.update(classes)
                known = True
            if not known:
                return None
        return sorted(found)

    def first(self, typed: Receiver, cls: str, name: str) -> Set[str]:
        """The method ``name`` a receiver of class ``cls`` runs: the first
        one in the class and its bases (only the bases for ``super()``)."""
        mro = self.ancestors(cls) if typed[0] == "super" else [cls, *self.ancestors(cls)]
        for owner in mro:
            if f"{owner}.{name}" in self.units:
                return {f"{owner}.{name}"}
        return set()

    def methods(self, module: str, typed: Receiver, name: str) -> Optional[Set[str]]:
        """Every method a call of ``name`` on ``typed`` can run, None when
        the receiver is untyped: the first in its class and bases, and the
        one of every subclass defining it."""
        classes = self.receiver_classes(module, typed)
        if classes is None:
            return None
        found: Set[str] = set()
        for cls in classes:
            found |= self.first(typed, cls, name)
            if typed[0] != "super":
                found.update(f"{sub}.{name}" for sub in self.subclasses(cls)
                             if f"{sub}.{name}" in self.units)
        return found

    # --------------------------------------------------------- reaching
    def reach(self, *keys: str) -> None:
        """Reach ``keys`` and what they use: typed edges to a fixpoint
        first, then the untyped name match (what it adds is ``by_name``)."""
        todo = [k for k in keys if k in self.units]
        by_name, typed_only = False, set()
        while True:
            while todo:
                key = todo.pop()
                if key in self.reached:
                    continue
                self.reached.add(key)
                unit = self.units[key]
                found = {f"{unit.module}:"} | set(unit.entries)
                for chain in unit.refs:
                    found |= self.resolve(unit.module, chain)
                for text in unit.strings:
                    found |= self.resolve_target(text)
                for module in unit.imports:
                    found |= self._in_module(module, [])
                for typed, name in unit.typed:
                    classes = self.receiver_classes(unit.module, typed)
                    if classes is None:
                        self.attrs.add(name)
                    for cls in classes or ():
                        found |= self.first(typed, cls, name)
                        if typed[0] != "super":  # and every reached subclass's override
                            self.called.add((cls, name))
                if unit.kind == "method":
                    found.add(key.rpartition(".")[0])
                self.attrs |= unit.attrs
                todo.extend(k for k in found if k in self.units and k not in self.reached)
            todo = [k for k, u in self.units.items()
                    if u.kind == "method" and k not in self.reached
                    and self._method_reached(k, by_name)]
            if not todo and not by_name:
                by_name, typed_only = True, set(self.reached)
                continue
            if not todo:
                self.by_name |= {k for k in self.reached - typed_only
                                 if self.units[k].kind == "method"}
                return

    def _method_reached(self, key: str, by_name: bool) -> bool:
        cls, _, name = key.rpartition(".")
        if cls not in self.reached:
            return False
        if name.startswith("__") and name.endswith("__"):
            return True
        bases = self.ancestors(cls)
        if any((owner, name) in self.called for owner in [cls, *bases]):
            return True
        if any(f"{base}.{name}" in self.reached for base in bases):
            return True
        return by_name and name in self.attrs

    def unreached(self) -> List[Unit]:
        return [u for k, u in sorted(self.units.items())
                if u.kind not in ("module", "root") and k not in self.reached]


def build(index: Dict[str, Module], package: str, root_files: Iterable[Path],
          root_units: Iterable[str] = ()) -> Graph:
    """Graph ``package`` and the root files from the index; reach from the roots."""
    graph = Graph()
    for module in index.values():
        if module.name == package or module.name.startswith(f"{package}."):
            graph.add_module(module)
    for module, chain, key in graph._entries:
        # A registry entry comes with the module that holds the registry.
        for registry in graph.resolve(module, chain):
            graph.units[f"{graph.units[registry].module}:"].entries.append(key)
    roots = [graph.add_root_file(index[str(path)]) for path in root_files]
    graph.reach(*roots, *root_units)
    return graph
