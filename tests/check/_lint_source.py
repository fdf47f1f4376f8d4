"""Lint one in-memory source string, as the rule unit tests do."""

from repro.check.lint import _apply_noqa, _raw_findings


def lint_source(source, path="<string>"):
    """The unsuppressed findings; the layer comes from ``path``."""
    kept, _ = _apply_noqa(_raw_findings(source, path, None), source)
    return kept
