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

Methods are matched conservatively.  A reached ``x.foo`` (or
``getattr(x, "foo")``) reaches the method ``foo`` of every reached
class; a method overriding a reached base method is reached; dunders
come with their class, and ``__all__`` with its module.  A reached
method reaches its class, a reached unit its module's top-level code.

Roots are whole files (every line of them counts: ``bench/``,
``benchmarks/``, ``examples/``) and unit keys (the CLI handlers).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.check.index import Module

#: ``mod:Qual``, ``mod:Qual.method``, ``mod:Qual+.method``, ``mod:DICT[key]``.
TARGET = re.compile(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)(\+?)(?:\.([A-Za-z_]\w*))?")

Chain = Tuple[str, ...]


@dataclass
class Unit:
    key: str
    kind: str  # function | class | method | data | module | root
    module: str
    lines: int = 0
    refs: Set[Chain] = field(default_factory=set)
    attrs: Set[str] = field(default_factory=set)
    strings: Set[str] = field(default_factory=set)
    imports: Set[str] = field(default_factory=set)
    bases: List[Chain] = field(default_factory=list)
    entries: List[str] = field(default_factory=list)


def _chain(node: ast.expr) -> Optional[Chain]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def _annotations(node: ast.AST) -> Iterable[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _collect(unit: Unit, trees: Iterable[ast.AST]) -> None:
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                unit.refs.add((node.id,))
            elif isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain:
                    unit.refs.add(chain)
                if not isinstance(node.ctx, ast.Store):
                    unit.attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if TARGET.match(node.value):
                    unit.strings.add(node.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("getattr", "hasattr") and len(node.args) > 1:
                    name = node.args[1]
                    if isinstance(name, ast.Constant) and isinstance(name.value, str):
                        unit.attrs.add(name.value)
            elif isinstance(node, ast.Import):
                unit.imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                unit.imports.add(node.module or "")
            for ann in _annotations(node):  # quoted annotations name classes too
                for text in ast.walk(ann):
                    if isinstance(text, ast.Constant) and isinstance(text.value, str):
                        try:
                            _collect(unit, [ast.parse(text.value, mode="eval")])
                        except SyntaxError:
                            pass


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
        self.attrs: Set[str] = set()
        self._ancestors: Dict[str, List[str]] = {}
        #: (module, decorator chain, entry key) for each ``@register...``
        self._entries: List[Tuple[str, Chain, str]] = []

    # ------------------------------------------------------------ parsing
    def add_module(self, module: Module) -> None:
        name = module.name
        self.modules[name] = module
        top = self._unit(f"{name}:", "module", name)
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = f"{name}:{stmt.name}"
                _collect(top, stmt.decorator_list)
                self._entries.extend(
                    (name, chain, key)
                    for chain in map(_registry, stmt.decorator_list) if chain
                )
                if isinstance(stmt, ast.ClassDef):
                    self._add_class(key, stmt, name)
                else:
                    unit = self._unit(key, "function", name, _span(stmt))
                    _collect(unit, [stmt.args, *stmt.body, *_annotations(stmt)])
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                for local in names:  # ``__all__`` is its module's own code
                    unit = top if local == "__all__" else self._unit(
                        f"{name}:{local}", "data", name, _span(stmt))
                    _collect(unit, [stmt])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                _collect(top, [stmt])

    def _add_class(self, key: str, node: ast.ClassDef, module: str) -> None:
        unit = self._unit(key, "class", module, _span(node))
        unit.bases = [c for c in map(_chain, node.bases) if c]
        _collect(unit, [*node.bases, *node.keywords])
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._unit(f"{key}.{stmt.name}", "method", module, _span(stmt))
                _collect(unit, stmt.decorator_list)
                _collect(method, [stmt.args, *stmt.body, *_annotations(stmt)])
            else:
                _collect(unit, [stmt])

    def _unit(self, key: str, kind: str, module: str, lines: int = 0) -> Unit:
        unit = self.units[key] = Unit(key, kind, module, lines)
        return unit

    def add_root_file(self, module: Module) -> str:
        """Every line of ``module`` is a root; returns the root unit's key."""
        name = f"<root>{module.path}"
        self.modules[name] = module
        _collect(self._unit(f"{name}:", "root", name), [module.tree])
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
        return [k for k, u in self.units.items() if u.kind == "class" and key in self.ancestors(k)]

    # --------------------------------------------------------- reaching
    def reach(self, *keys: str) -> None:
        todo = [k for k in keys if k in self.units]
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
                if unit.kind == "method":
                    found.add(key.rpartition(".")[0])
                self.attrs |= unit.attrs
                todo.extend(k for k in found if k in self.units and k not in self.reached)
            todo = [k for k, u in self.units.items()
                    if u.kind == "method" and k not in self.reached
                    and self._method_reached(k)]
            if not todo:
                return

    def _method_reached(self, key: str) -> bool:
        cls, _, name = key.rpartition(".")
        if cls not in self.reached:
            return False
        if name in self.attrs or (name.startswith("__") and name.endswith("__")):
            return True
        return any(f"{base}.{name}" in self.reached for base in self.ancestors(cls))

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
