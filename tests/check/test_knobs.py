"""Every constructor option in ``src/repro`` is one that something varies.

A knob (an ``__init__`` parameter or a dataclass field with a default)
that no caller outside ``tests/`` ever sets to another value is one
value: it becomes a constant, and the branches only its other values
reached are deleted.  Callers are the package itself, ``bench/``,
``benchmarks/`` and ``examples/`` (the reachability test's roots); a
test that needs another value monkeypatches the constant.
"""

import re
import textwrap

from ._knobs import build_knobs
from .test_reachability import REPO, root_files

#: Unvaried on purpose; a pattern over ``module:Class.param`` and a reason.
ALLOWLIST = {
    r"repro\.engine\.ftengine:FtEngineConfig\.memory ":
        "§4.7 names both memories; running the engine on DDR4 is an open roadmap item",
    r"repro\.host\.(library|runtime|queues|commands):":
        "what the host software stack keeps is an open roadmap item",
}


def test_every_knob_is_varied_outside_tests():
    found = build_knobs(REPO / "src", "repro", root_files()).unvaried()
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
    knobs = build_knobs(tmp_path / "src", "pkg", [root])
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
    knobs = build_knobs(tmp_path / "src", "pkg", [root])
    assert knobs.unvaried() == ["pkg.mod:Inner.link (100)"]
