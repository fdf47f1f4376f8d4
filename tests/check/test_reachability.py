"""Everything in ``src/repro`` is reached from where the repo is used.

The roots are the CLI (``python -m repro`` and every leaf handler
pinned in ``tests/data/cli_surface.txt``), ``bench/`` (the workload
builders and the span targets), ``benchmarks/`` and ``examples/``.
``tests/`` is never a root: a name only its own tests reach is deleted
with them, or moved into ``tests/`` when a test needs it as an oracle.
"""

import argparse
import textwrap
from pathlib import Path

from repro.__main__ import build_parser
from repro.check.index import build_index

from ._reach import build

REPO = Path(__file__).resolve().parents[2]

#: Reached on purpose although no root names them; one line of reason each.
ALLOWLIST: dict = {}


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


def test_allowlist_is_short_and_every_root_resolves(program_index, root_files):
    assert len(ALLOWLIST) <= 10
    graph = repo_graph(program_index, root_files)
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
