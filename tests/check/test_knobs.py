"""Every option in ``src/repro`` is one that something varies.

A knob (a parameter with a default of a function, a method or an
``__init__``, or a dataclass field with a default) that no caller
outside ``tests/`` ever sets to another value is one value: it becomes
a constant, and the branches only its other values reached are
deleted.  Callers are the package itself, ``bench/``,
``benchmarks/`` and ``examples/`` (the reachability test's roots); a
test that needs another value monkeypatches the constant.
"""

import re
import textwrap

from repro.check.index import build_index

from ._knobs import build_knobs

#: Unvaried on purpose; a pattern over ``module:Class.param`` (or
#: ``module:func(param=)``) and a reason.
ALLOWLIST = {
    r"repro\.engine\.ftengine:FtEngineConfig\.memory ":
        "§4.7 names both memories; running the engine on DDR4 is an open roadmap item",
}


def test_every_knob_is_varied_outside_tests(program_index, root_files):
    found = build_knobs(program_index, "repro", root_files).unvaried()
    stale = [p for p in ALLOWLIST if not any(re.match(p, f) for f in found)]
    assert not stale, f"allowlisted but varied (or gone): {stale}"
    report = [f for f in found if not any(re.match(p, f) for p in ALLOWLIST)]
    assert not report, "one value outside tests/, make it a constant:\n  " + "\n  ".join(report)


def test_allowlist_is_short_and_reasoned():
    assert len(ALLOWLIST) <= 5
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _package(tmp_path, modules):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for name, text in modules.items():
        (package / f"{name}.py").write_text(textwrap.dedent(text))
    return package


def _index(tmp_path, root):
    return build_index([str(tmp_path / "src"), str(root)])


def test_the_pass_on_a_planted_package(tmp_path):
    _package(tmp_path, {"mod": """
        from dataclasses import dataclass, field

        class OneValue:
            def __init__(self, depth=4):
                self.depth = depth

        class TwoCallers:
            def __init__(self, width=8):
                self.width = width

        class ByString:
            def __init__(self, rate=1.0):
                self.rate = rate

        @dataclass
        class ByCls:
            size: int = 64
            items: list = field(default_factory=list)
            seen: int = field(default=0, init=False)
            count: int = 0

            @classmethod
            def big(cls):
                return cls(size=1024)

        class FromArgs:
            def __init__(self, seed=0):
                self.seed = seed

        def bump(box: ByCls):
            box.count += 1
    """})
    root = tmp_path / "root.py"
    root.write_text(textwrap.dedent("""
        from pkg.mod import ByCls, FromArgs, OneValue, TwoCallers

        DRIVERS = ["pkg.mod:ByString"]
        OneValue(depth=4)
        TwoCallers(width=16)
        TwoCallers(32)
        ByCls.big()

        def main(args):
            return FromArgs(seed=args.seed)
    """))
    knobs = build_knobs(_index(tmp_path, root), "pkg", [root])
    assert knobs.unvaried() == ["pkg.mod:OneValue.depth (4)"]


def test_a_forwarded_default_is_as_varied_as_its_source(tmp_path):
    _package(tmp_path, {"mod": """
        class Inner:
            def __init__(self, link=100, drop=0.0):
                self.link, self.drop = link, drop

        def build(link=100, drop=0.0):
            return Inner(link=link, drop=drop)
    """})
    root = tmp_path / "root.py"
    root.write_text("from pkg.mod import build\nbuild(drop=0.5)\n")
    knobs = build_knobs(_index(tmp_path, root), "pkg", [root])
    assert knobs.unvaried() == ["pkg.mod:build(link=) (100)", "pkg.mod:Inner.link (100)"]


def test_functions_and_methods_are_knobs_too(tmp_path):
    """A function parameter only tests vary; a method called on an
    untyped receiver (an unannotated parameter) is matched by name, so
    it binds every class defining it; a method used other than by a
    call (its callers cannot be seen)."""
    _package(tmp_path, {"mod": """
        def run(scenario, backend="f4t", seed=0):
            return scenario, backend, seed

        class Wire:
            def send(self, frame, delay=0):
                return frame, delay

            def tap(self, frame, copies=1):
                return frame, copies

        class Stack:
            def send(self, frame, delay=0, flags=0):
                return frame, delay, flags

            def tick(self, budget=1):
                return budget

            def _pump(self, until=None):
                return until

            def drive(self):
                self._pump()
                return self.tick
    """})
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import run\nrun('rpc', backend='flextoe')\n")
    root = tmp_path / "root.py"
    root.write_text(textwrap.dedent("""
        from pkg.mod import Stack, Wire, run

        def drive(stack):
            stack.send(b"", delay=5)

        run("rpc", seed=7)
        drive(Stack())
        Wire().tap(b"")
        Stack().drive()
    """))
    knobs = build_knobs(_index(tmp_path, root), "pkg", [root])
    assert knobs.unvaried() == [
        "pkg.mod:Stack._pump(until=) (None)",
        "pkg.mod:Stack.send(flags=) (0)",
        "pkg.mod:Wire.tap(copies=) (1)",
        "pkg.mod:run(backend=) ('f4t')",
    ]


def test_a_method_call_binds_by_its_receivers_type(tmp_path):
    """A typed receiver binds its class's method only: ``Stack.send``'s
    ``delay`` is reported although ``Wire.send``'s is varied, and a
    call through ``self`` and a class-wide ``self.x`` binds the same way."""
    _package(tmp_path, {"mod": """
        class Wire:
            def send(self, frame, delay=0):
                return frame, delay

        class Stack:
            def __init__(self):
                self.wire = Wire()

            def send(self, frame, delay=0):
                return frame, delay

            def flush(self, frame, wait=1):
                return frame, wait

            def drive(self):
                self.flush(b"", wait=2)
                return self.wire.send(b"", delay=5)
    """})
    root = tmp_path / "root.py"
    root.write_text(textwrap.dedent("""
        from pkg.mod import Stack

        def main():
            stack = Stack()
            stack.send(b"")
            stack.drive()
    """))
    knobs = build_knobs(_index(tmp_path, root), "pkg", [root])
    assert knobs.unvaried() == ["pkg.mod:Stack.send(delay=) (0)"]


def test_a_grid_binds_its_driver_to_its_literal_values(tmp_path):
    """A lab grid names its driver by string: the driver is called with
    the grid's ``base`` values, each ``domains`` element and ``seed``."""
    _package(tmp_path, {"drivers": """
        def point(scenario, load=1.0, audit=True, backend="f4t", seed=None, quick=False):
            return scenario, load, audit, backend, seed, quick
    """, "grids": """
        def grid(quick=False):
            return dict(
                driver="pkg.drivers:point",
                domains={"scenario": ["rpc", "mixed"], "load": [1.0, 2.0]},
                base={"audit": True, "quick": quick},
                seeds=[1],
            )
    """})
    root = tmp_path / "root.py"
    root.write_text("from pkg.grids import grid\ngrid(quick=True)\n")
    knobs = build_knobs(_index(tmp_path, root), "pkg", [root])
    assert knobs.unvaried() == [
        "pkg.drivers:point(audit=) (True)",
        "pkg.drivers:point(backend=) ('f4t')",
    ]
