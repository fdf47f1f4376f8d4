"""Everything in ``src/repro`` is reached from where the repo is used.

The roots are the CLI (``python -m repro`` and every leaf handler
pinned in ``tests/data/cli_surface.txt``), ``bench/`` (the workload
builders and the span targets), ``benchmarks/`` and ``examples/``.
``tests/`` is never a root: a name only its own tests reach is deleted
with them, or moved into ``tests/`` when a test needs it as an oracle.
A method call reaches what its receiver's type says it can run; only a
call on an untyped receiver reaches every method of its name, and how
many methods only that keeps is pinned here and may only go down.
"""

import argparse
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import build_parser
from repro.check.index import build_index

from ._reach import build

REPO = Path(__file__).resolve().parents[2]

#: Reached on purpose although no root names them; one line of reason each.
ALLOWLIST: dict = {
    "repro.shard.cell:CellSim.loop_stats":
        "CI's shard-smoke step reads the dry megaflow loop counts",
}

#: Methods reached only through a call on an untyped receiver (matched
#: by name), as measured when calls were first resolved by type: lower
#: it when a change types more receivers, never raise it.
BY_NAME = 219


def cli_handlers(parser: argparse.ArgumentParser):
    """``module:function`` of every verb's ``set_defaults(handler=...)``."""
    handler = parser.get_default("handler")
    if handler is not None:
        yield f"{handler.__module__}:{handler.__qualname__.split('.<locals>')[0]}"
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from cli_handlers(sub)


def repo_graph(index, root_files):
    handlers = sorted(set(cli_handlers(build_parser())))
    return build(index, "repro", root_files, ["repro.__main__:", *handlers])


def test_every_unit_is_reached_from_a_root(program_index, root_files):
    graph = repo_graph(program_index, root_files)
    unreached = {unit.key for unit in graph.unreached()}
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not stale, f"allowlisted but reached (or gone): {stale}"
    graph.reach(*ALLOWLIST)
    report = [f"{u.key} ({u.lines} lines)" for u in graph.unreached()]
    assert not report, "reached only from tests/, if at all:\n  " + "\n  ".join(report)


@pytest.fixture(scope="module")
def graph(program_index, root_files):
    return repo_graph(program_index, root_files)


def test_what_only_the_name_match_reaches_only_shrinks(graph):
    assert len(graph.by_name) <= BY_NAME


def test_allowlist_is_short_and_every_root_resolves(graph):
    assert len(ALLOWLIST) <= 10
    handlers = sorted(set(cli_handlers(build_parser())))
    assert len(handlers) > 20
    assert all(key in graph.units for key in handlers)
    spans = REPO / "bench" / "spans.py"
    targets = graph.units[f"<root>{spans}:"].strings
    assert len(targets) > 40
    assert all(graph.resolve_target(t) for t in targets), [
        t for t in targets if not graph.resolve_target(t)
    ]


def test_the_graph_on_a_planted_package(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import dead, by_string\n")
    (package / "reg.py").write_text(textwrap.dedent("""
        TABLE = {}

        def register(name):
            def decorate(entry):
                TABLE[name] = entry
                return entry
            return decorate

        def lookup(name):
            return TABLE[name]()
    """))
    (package / "mod.py").write_text(textwrap.dedent("""
        from pkg.reg import register

        def dead():
            return 1

        def by_string():
            return 2

        @register("entry")
        def entry():
            return 3

        class Base:
            def run(self):
                return 4

        class Child(Base):
            def run(self):
                return 5
    """))
    root = tmp_path / "root.py"
    root.write_text(textwrap.dedent("""
        from pkg.mod import Child
        from pkg.reg import lookup

        TARGETS = ["pkg.mod:by_string", "pkg.mod:Base.run"]
        lookup("entry")
        Child()
    """))
    graph = build(build_index([str(tmp_path / "src"), str(root)]), "pkg", [root])
    assert [unit.key for unit in graph.unreached()] == ["pkg.mod:dead"]


def test_a_module_level_name_is_a_unit_and_all_comes_with_its_module(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('from .mod import used\n__all__ = ["used"]\n')
    (package / "mod.py").write_text(textwrap.dedent("""
        LIMIT = 3
        SPARE = 4
        __all__ = ["used"]

        def used():
            return LIMIT
    """))
    root = tmp_path / "root.py"
    root.write_text("from pkg.mod import used\nused()\n")
    graph = build(build_index([str(tmp_path / "src"), str(root)]), "pkg", [root])
    assert [unit.key for unit in graph.unreached()] == ["pkg.mod:SPARE"]


def _graph(tmp_path, modules, root_text):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for name, text in modules.items():
        (package / f"{name}.py").write_text(textwrap.dedent(text))
    root = tmp_path / "root.py"
    root.write_text(textwrap.dedent(root_text))
    return build(build_index([str(tmp_path / "src"), str(root)]), "pkg", [root])


def test_a_subscripted_base_is_a_base(tmp_path):
    """``B(A[int])`` inherits ``A.m``: ``self.m()`` in ``B`` reaches it."""
    graph = _graph(tmp_path, {"mod": """
        from typing import Generic, TypeVar

        T = TypeVar("T")

        class A(Generic[T]):
            def m(self):
                return 1

        class B(A[int]):
            def run(self):
                return self.m()
    """}, """
        from pkg.mod import B

        def main():
            job = B()
            job.run()
    """)
    assert graph.ancestors("pkg.mod:B") == ["pkg.mod:A"]
    assert [unit.key for unit in graph.unreached()] == []


def test_a_method_is_reached_by_its_receivers_type(tmp_path):
    """A live ``Wire.send`` keeps no ``Stack.send`` alive; an override
    is reached through a base-typed receiver, and so is a method only
    the subclasses define."""
    graph = _graph(tmp_path, {"mod": """
        class Wire:
            def send(self):
                return 1

        class Stack:
            def send(self):
                return 2

            def drive(self):
                return 3

        class Base:
            def run(self):
                return 4

        class Child(Base):
            def run(self):
                return 5

            def stop(self):
                return 6

        def drive(job: Base):
            return job.run() + job.stop()
    """}, """
        from pkg.mod import Child, Stack, Wire, drive

        def main():
            wire = Wire()
            wire.send()
            stack = Stack()
            stack.drive()
            drive(Child())
    """)
    assert [unit.key for unit in graph.unreached()] == ["pkg.mod:Stack.send"]
    assert graph.by_name == set()


def test_a_calls_result_and_a_module_constant_are_typed(tmp_path):
    """A call's result is typed by the callee's return annotation, and a
    module-level name by its constructor: neither keeps ``Pcie.rate``."""
    graph = _graph(tmp_path, {"mod": """
        class Link:
            def rate(self):
                return 1

        class Pcie:
            def rate(self):
                return 2

        LINK = Link()

        def make() -> "Link":
            return Link()
    """}, """
        from pkg.mod import LINK, Pcie, make

        def main():
            LINK.rate()
            link = make()
            link.rate()
            make().rate()
            return Pcie()
    """)
    assert [unit.key for unit in graph.unreached()] == ["pkg.mod:Pcie.rate"]
    assert graph.by_name == set()
