"""Lint one in-memory source string, as the rule unit tests do."""

from repro.check.index import Module
from repro.check.lint import lint_modules


def lint_source(source, path="<string>"):
    """The unsuppressed findings; the layer comes from ``path``."""
    return lint_modules([Module(path, source)]).findings
