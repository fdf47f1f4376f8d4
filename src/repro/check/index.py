"""The program index: each Python file parsed once, for every static pass.

:func:`build_index` reads files and directories into one :class:`Module`
per file.  A module keeps what simlint's rules, the reachability graph
and the knob pass read: its dotted name and layer, source, tree, noqa
map, one local-import table, the parent of every node, its nodes by
type, and (built on first use) its function scopes and dataflow.

A module's dotted name follows the ``__init__.py`` chain up from its
directory.  A file outside any package takes its name from the path
after its last ``repro`` directory, so a planted ``.../repro/engine/x.py``
lints as the ``engine`` layer.
"""

from __future__ import annotations

import ast
import os
import re
from collections import deque
from functools import cached_property
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, Type, TypeVar, cast

from . import dataflow as df

#: ``# f4t: noqa`` (all rules) or ``# f4t: noqa[F4T003]`` / a comma list.
_NOQA_RE = re.compile(r"#\s*f4t:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?", re.I)

#: What an imported local name is bound to: (module, member), with
#: member None when the name is the module itself.
Binding = Tuple[str, Optional[str]]

N = TypeVar("N", bound=ast.AST)


def module_name(path: str) -> Tuple[str, bool]:
    """The dotted module name of ``path``, and whether it is a package."""
    directory, filename = os.path.split(os.path.normpath(path))
    stem = filename[:-3] if filename.endswith(".py") else filename
    package = stem == "__init__"
    parts: List[str] = [] if package else [stem]
    if directory and os.path.isfile(os.path.join(directory, "__init__.py")):
        while directory and os.path.isfile(os.path.join(directory, "__init__.py")):
            directory, tail = os.path.split(directory)
            parts.append(tail)
        return ".".join(reversed(parts)), package
    dirs = directory.replace("\\", "/").split("/")
    if "repro" in dirs:
        last = len(dirs) - 1 - dirs[::-1].index("repro")
        parts.extend(reversed(dirs[last:]))
    return ".".join(reversed(parts)), package


def layer_of(name: str, package: bool) -> Optional[str]:
    """The repo layer of a module: its package directly under ``repro``
    (``engine``, ``tcp``, ...), ``""`` for a top-level module, or
    ``None`` outside the ``repro`` package."""
    parts = name.split(".")
    if parts[0] != "repro":
        return None
    depth = len(parts) if package else len(parts) - 1
    return parts[1] if depth >= 2 else ""


def noqa_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line -> suppressed rule ids (None = every rule) from f4t noqa tags."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is not None:
            ids = match.group(1)
            suppressions[lineno] = None if ids is None else {
                token.strip().upper() for token in ids.split(",") if token.strip()
            }
    return suppressions


class ImportTable(Dict[str, Set[Binding]]):
    """Local name -> its bindings by the imports anywhere in one module,
    as Python binds them: ``import a.b`` binds ``a`` to the module ``a``,
    ``import a.b as c`` binds ``c`` to ``a.b``, and a relative ``from``
    import resolves against the module's own package."""

    def __init__(self, module: Module) -> None:
        super().__init__()
        base = module.name if module.package else module.name.rpartition(".")[0]
        for node in module.nodes(ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.setdefault(local, set()).add((alias.name if alias.asname else local, None))
        for node in module.nodes(ast.ImportFrom):
            source = node.module or ""
            if node.level:
                anchor = base.rsplit(".", node.level - 1)[0] if node.level > 1 else base
                source = f"{anchor}.{source}" if source else anchor
            for alias in node.names:
                self.setdefault(alias.asname or alias.name, set()).add((source, alias.name))

    def call_targets(self, func: ast.expr) -> List[str]:
        """Every dotted name a call target can be, sorted.

        ``R(...)`` after ``from random import Random as R`` is
        ``random.Random``; ``datetime.datetime.now`` stays itself; the
        root of an attribute chain that no import binds is kept as
        written (``self.clock.now``).
        """
        parts: List[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return []
        rest = "".join(f".{part}" for part in reversed(parts))
        bindings = self.get(func.id)
        if not bindings:
            return [func.id + rest] if parts else []
        return sorted(
            f"{source}.{member}{rest}" if member else f"{source}{rest}"
            for source, member in bindings
        )


class Module:
    """One parsed file and everything the static passes read from it."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.name, self.package = module_name(path)
        self.layer = layer_of(self.name, self.package)
        self.source = source
        self.noqa = noqa_lines(source)
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = ast.Module(body=[], type_ignores=[])
            self.syntax_error = exc
        #: node -> direct parent.
        self.parents: Dict[ast.AST, ast.AST] = {}
        self._nodes: Dict[type, List[ast.AST]] = {}
        todo: Deque[ast.AST] = deque([self.tree])  # ast.walk's order
        while todo:
            node = todo.popleft()
            self._nodes.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                todo.append(child)
        self.imports = ImportTable(self)

    def nodes(self, kind: Type[N]) -> List[N]:
        """Every node of exactly this type, in ``ast.walk`` order."""
        return cast(List[N], self._nodes.get(kind, []))

    @cached_property
    def scopes(self) -> Dict[ast.FunctionDef, df.Scope]:
        """Every function the dataflow analyses, with its scope."""
        return dict(df.iter_function_scopes(self.tree))

    @cached_property
    def dataflow(self) -> df.ModuleDataflow:
        return df.ModuleDataflow(self.scopes, self.imports)


def build_index(paths: Iterable[str]) -> Dict[str, Module]:
    """Path -> module for every Python file under ``paths``, in walk order."""
    files: List[str] = []
    for path in paths:
        if path.endswith(".py") and not os.path.isdir(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):  # nothing for a file
            dirnames[:] = sorted(set(dirnames) - {"__pycache__", ".git", ".ruff_cache"})
            files += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py")]
    index: Dict[str, Module] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            index[path] = Module(path, handle.read())
    return index
