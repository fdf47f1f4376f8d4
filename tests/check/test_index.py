"""Every static pass reads the program index: each file is parsed once.

Counted, not timed: with ``ast.parse`` refusing to parse a module,
simlint, a reach graph and the knob pass still run over the session's
index and report what they report everywhere else.  Quoted annotations
are expressions and still parse (``mode="eval"``).
"""

import ast
import re

from repro.check.lint import lint_modules

from ._knobs import build_knobs
from .test_knobs import ALLOWLIST


def test_every_pass_reads_the_session_parse(program_index, root_files, src_lint, monkeypatch):
    parse, modes = ast.parse, []

    def expressions_only(source, filename="<unknown>", mode="exec", **kwargs):
        modes.append(mode)
        assert mode == "eval", f"{filename} parsed again"
        return parse(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", expressions_only)
    lint = lint_modules(m for m in program_index.values() if m.layer is not None)
    knobs = build_knobs(program_index, "repro", root_files)  # on a fresh reach graph
    monkeypatch.undo()

    assert modes and set(modes) == {"eval"}
    assert (lint.findings, lint.files_checked, lint.suppressed) == (
        src_lint.findings, src_lint.files_checked, src_lint.suppressed)
    assert all(f"<root>{path}:" in knobs.graph.reached for path in root_files)
    found = knobs.unvaried()
    assert found and all(any(re.match(p, f) for p in ALLOWLIST) for f in found)
