"""simlint driver: rules over the program index, suppression, reporting.

``lint_paths`` indexes files or directories (:mod:`repro.check.index`
parses each once) and lints the modules: every applicable rule runs
(layer scoping comes from the module's dotted name), and findings are
filtered through ``# f4t: noqa`` line suppressions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Sequence

from .findings import Finding
from .index import Module, build_index
from .rules import all_rules


def raw_findings(module: Module) -> List[Finding]:
    """Every finding in one module, before noqa suppression."""
    error = module.syntax_error
    if error is not None:
        return [Finding(
            rule="F4T000",
            path=module.path,
            line=error.lineno or 0,
            col=error.offset or 0,
            message=f"syntax error: {error.msg}",
        )]
    findings: List[Finding] = []
    for rule in all_rules():
        if rule.applies(module):
            findings.extend(rule.check(module))
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


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
            "findings": [asdict(finding) for finding in self.findings],
        }


def lint_modules(modules: Iterable[Module]) -> LintResult:
    """Lint indexed modules, honouring their noqa tags."""
    result = LintResult()
    for module in modules:
        result.files_checked += 1
        for finding in raw_findings(module):
            if finding.line in module.noqa:
                allowed = module.noqa[finding.line]
                if allowed is None or finding.rule.upper() in allowed:
                    result.suppressed += 1
                    continue
            result.findings.append(finding)
    return result


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint files and directories; the repo-wide entry point."""
    return lint_modules(build_index(paths).values())
