"""One program index per session for the static-pass tests.

``src/repro`` and the root files (the reachability and knob passes'
callers outside the package) are parsed once; the tree lint, the reach
graph and the knob pass all read that index.  Each graph is built fresh
from it, since reaching marks the graph.
"""

from pathlib import Path

import pytest

from repro.check.index import build_index
from repro.check.lint import lint_modules

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def root_files():
    """``bench/`` (not its tests), ``benchmarks/`` and ``examples/``."""
    bench = [p for p in sorted(REPO.glob("bench/*.py")) if not p.name.startswith("test_")]
    return bench + sorted(REPO.glob("benchmarks/*.py")) + sorted(REPO.glob("examples/*.py"))


@pytest.fixture(scope="session")
def program_index(root_files):
    return build_index([str(REPO / "src" / "repro"), *map(str, root_files)])


@pytest.fixture(scope="session")
def src_lint(program_index):
    """simlint over the index's ``repro`` modules: what ``check lint`` sees."""
    return lint_modules(m for m in program_index.values() if m.layer is not None)
