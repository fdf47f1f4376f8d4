"""What every ``python -m repro`` verb shares: groups, list flags, sinks.

Kept import-light (no simulator packages) because the per-layer
``cli.py`` modules need :func:`comma_list` while the parser is built.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List


def add_group(
    subparsers: argparse._SubParsersAction, name: str, help: str
) -> argparse._SubParsersAction:
    """A verb group (``repro <name> <verb>``); returns where its verbs go.

    Every verb does ``set_defaults(handler=fn)``, which overrides the
    group's own handler — so that one only runs for a bare ``repro
    <name>``: it lists the verbs and exits 2.
    """
    group = subparsers.add_parser(name, help=help)
    verbs = group.add_subparsers()

    def usage(_args: argparse.Namespace) -> int:
        print(f"usage: python -m repro {name} {{{','.join(verbs.choices)}}}")
        return 2

    group.set_defaults(handler=usage)
    return verbs


def comma_list(convert: Callable[[str], Any]) -> Callable[[str], List[Any]]:
    """An argparse ``type=`` for ``A,B,...`` flags; a bad item is a usage
    error (exit 2), not a traceback from inside the handler."""

    def parse(text: str) -> List[Any]:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}"
            ) from None

    return parse


def positive(text: str) -> float:
    """An argparse ``type=`` for a rate multiplier: a number above zero.

    Zero divides by zero and a negative rate never ends an arrival
    schedule, deep inside a run; here either is a usage error (exit 2).
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above zero, got {text!r}")
    return value


def host_count(text: str) -> int:
    """An argparse ``type=`` for ``--hosts``: a fabric needs two."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"a fabric needs at least 2 hosts, got {text!r}")
    return value


def emit(text: str, dest: str) -> None:
    """Write ``text`` to the file ``dest``, or to stdout when it is ``-``."""
    if dest == "-":
        sys.stdout.write(text)
        return
    with open(dest, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {dest}")
