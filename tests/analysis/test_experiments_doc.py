"""EXPERIMENTS.md's report is ``python -m repro report``'s stdout.

The block between the two markers below is the full-fidelity report,
fenced.  Refresh it with ``python -m repro report > report.txt`` and
paste the file between the fences; on a mismatch this test names the
first line that differs, then prints the unified diff.
"""

import difflib
from pathlib import Path

import pytest

from repro.analysis.report import render_report, run_all

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BEGIN = "<!-- BEGIN: python -m repro report -->"
END = "<!-- END: python -m repro report -->"
FENCE_OPEN, FENCE_CLOSE = "```text\n", "```\n"


def committed_block():
    """``(first line number, text)`` of the report fenced between the markers."""
    text = DOC.read_text(encoding="utf-8")
    assert text.count(BEGIN) == 1 and text.count(END) == 1, (
        f"EXPERIMENTS.md must hold exactly one {BEGIN!r} ... {END!r} block"
    )
    head, rest = text.split(BEGIN + "\n")
    block = rest.split(END)[0]
    assert block.startswith(FENCE_OPEN) and block.endswith(FENCE_CLOSE), (
        f"the report block must be fenced as {FENCE_OPEN!r} ... {FENCE_CLOSE!r}"
    )
    first_line = head.count("\n") + 3  # the marker and the fence come first
    return first_line, block[len(FENCE_OPEN):-len(FENCE_CLOSE)]


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_every_check_passes_at_full_fidelity(results):
    failing = [
        f"{result.exhibit}: {name}"
        for result in results.values()
        for name, check in result.checks.items()
        if not check.passes
    ]
    assert failing == []


def test_the_committed_block_is_the_report(results):
    first_line, committed = committed_block()
    rendered = render_report(results) + "\n"  # print's newline
    if committed == rendered:
        return
    old, new = committed.splitlines(keepends=True), rendered.splitlines(keepends=True)
    index = next(
        (i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new))
    )
    committed_line = old[index].rstrip("\n") if index < len(old) else "<end of block>"
    rendered_line = new[index].rstrip("\n") if index < len(new) else "<end of report>"
    diff = "".join(
        difflib.unified_diff(old, new, "EXPERIMENTS.md", "python -m repro report")
    )
    pytest.fail(
        f"EXPERIMENTS.md line {first_line + index} differs from the report:\n"
        f"  committed: {committed_line!r}\n"
        f"  rendered:  {rendered_line!r}\n"
        "re-render: python -m repro report > report.txt, and paste it between "
        "the markers\n\n" + diff,
        pytrace=False,
    )
