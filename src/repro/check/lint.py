"""simlint driver: file discovery, parsing, suppression, reporting.

``lint_paths`` walks files or directories, parses each Python file once,
runs every applicable rule (layer scoping comes from the file's position
under ``repro/``), and filters findings through ``# f4t: noqa`` line
suppressions.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .rules import FileContext, LintRule, all_rules

#: ``# f4t: noqa`` (all rules) or ``# f4t: noqa[F4T003]`` / a comma list.
_NOQA_RE = re.compile(r"#\s*f4t:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?", re.I)

def layer_of(path: str) -> Optional[str]:
    """The repo layer a file belongs to: its package directly under
    ``repro/`` (``engine``, ``tcp``, ...), ``""`` for top-level modules,
    or ``None`` when the path is not inside a ``repro`` package at all.
    """
    parts = os.path.normpath(path).replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            if len(remainder) <= 1:
                return ""
            return remainder[0]
    return None


def noqa_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line -> suppressed rule ids (None = every rule) from f4t noqa tags."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = {
                token.strip().upper()
                for token in ids.split(",")
                if token.strip()
            }
    return suppressions


def _raw_findings(
    source: str, path: str, rules: Optional[Sequence[LintRule]]
) -> List[Finding]:
    """Every finding in one source string, before noqa suppression."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule="F4T000",
            path=path,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )]
    ctx = FileContext(path=path, layer=layer_of(path), tree=tree, source=source)  # type: ignore[arg-type]
    findings: List[Finding] = []
    for rule in rules if rules is not None else all_rules():
        if rule.applies(ctx):
            findings.extend(rule.check(ctx))
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def _apply_noqa(
    findings: Sequence[Finding], source: str
) -> Tuple[List[Finding], int]:
    """Filter findings through f4t noqa tags; returns (kept, suppressed)."""
    suppressions = noqa_lines(source)
    if not suppressions:
        return list(findings), 0
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        if finding.line not in suppressions:
            kept.append(finding)
            continue
        allowed = suppressions[finding.line]
        if allowed is None or finding.rule.upper() in allowed:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


@dataclass
class LintResult:
    """The outcome of one lint run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [finding.render() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"simlint: {len(self.findings)} {noun} in "
            f"{self.files_checked} file(s)"
            + (f" ({self.suppressed} suppressed)" if self.suppressed else "")
        )
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Counts per rule plus the suppression count, for dashboards
        and the CI artifact."""
        by_rule: Dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return {
            "total": len(self.findings),
            "by_rule": dict(sorted(by_rule.items())),
            "suppressed": self.suppressed,
            "files_checked": self.files_checked,
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "summary": self.summary(),
            "findings": [finding.to_json() for finding in self.findings],
        }


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in {"__pycache__", ".git", ".ruff_cache"}
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        elif path.endswith(".py"):
            yield path


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[LintRule]] = None,
) -> LintResult:
    """Lint files and directories; the repo-wide entry point."""
    result = LintResult()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        kept, suppressed = _apply_noqa(
            _raw_findings(source, path, rules), source
        )
        result.files_checked += 1
        result.findings.extend(kept)
        result.suppressed += suppressed
    return result
