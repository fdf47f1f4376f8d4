"""``python -m repro check`` — the static analyzer and the two sanitizers.

Subcommands::

    python -m repro check lint [paths...]   # simlint over the tree
    python -m repro check race              # sanitized traffic run
    python -m repro check lockstep          # sanitized shard run
    python -m repro check all               # all three; the CI gate

Exit code 0 means clean; 1 means findings (each named with its rule id
and ``file:line``, or cycle and memory location for race findings);
2 means usage error.  ``--json`` writes the machine-readable artifact
CI uploads on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from ..cli import add_group, emit
from .findings import Sanitizer
from .lint import lint_paths
from .lockstep import run_lockstep_check
from .race import run_race_check
from .rules import all_rules

DEFAULT_PATHS = ["src"]


Leg = Tuple[Dict[str, Any], bool]  # (the --json payload, clean?)
SanitizedRun = Callable[[str, Optional[int]], Tuple[Sanitizer[Any], object]]


def _lint(args: argparse.Namespace) -> Leg:
    result = lint_paths(args.paths or DEFAULT_PATHS)
    print(result.render())
    return result.to_json(), result.ok


def _sanitized(run: SanitizedRun, scenario: str, seed: Optional[int]) -> Leg:
    """One sanitizer leg: the run, its report, and whether it finished."""
    san, result = run(scenario, seed)
    print(san.report())
    finished = getattr(result, "finished", True)
    if not finished:
        print(f"check {san.name}: the sanitized run did not finish",
              file=sys.stderr)
    return san.to_json(), san.ok and finished


def _finish(args: argparse.Namespace, payload: Dict[str, Any], ok: bool) -> int:
    """Write the ``--json PATH`` artifact, if asked; exit 0 only when clean."""
    if args.json is not None:
        emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.json)
    return 0 if ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id} {rule.title}: {rule.rationale}")
        return 0
    return _finish(args, *_lint(args))


def cmd_race(args: argparse.Namespace) -> int:
    return _finish(args, *_sanitized(run_race_check, args.scenario, args.seed))


def cmd_lockstep(args: argparse.Namespace) -> int:
    return _finish(
        args, *_sanitized(run_lockstep_check, args.scenario, args.seed)
    )


def cmd_all(args: argparse.Namespace) -> int:
    legs = {
        "lint": _lint(args),
        "race": _sanitized(run_race_check, args.scenario, args.seed),
        "lockstep": _sanitized(
            run_lockstep_check, args.lockstep_scenario, args.seed
        ),
    }
    return _finish(
        args,
        {name: payload for name, (payload, _) in legs.items()},
        all(ok for _, ok in legs.values()),
    )


def _add_race_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default="churn",
        help="traffic scenario driving the sanitized run (default churn, "
             "which keeps every flow in SRAM: it never evicts, so the "
             "Fig 6 migration and DRAM hooks stay idle)",
    )
    parser.add_argument("--seed", type=int, default=None, help="top-level seed")


def add_check_parser(subparsers: argparse._SubParsersAction) -> None:
    check_sub = add_group(
        subparsers, "check", help="static analyzer + race sanitizer (repro.check)"
    )

    lint = check_sub.add_parser("lint", help="run simlint over the tree")
    lint.add_argument(
        "paths", nargs="*", help="files or directories (default: src)"
    )
    lint.add_argument("--json", metavar="PATH", help="write findings JSON")
    lint.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    lint.set_defaults(handler=cmd_lint)

    race = check_sub.add_parser(
        "race", help="run a traffic scenario under the race sanitizer"
    )
    _add_race_options(race)
    race.add_argument("--json", metavar="PATH", help="write findings JSON")
    race.set_defaults(handler=cmd_race)

    lockstep = check_sub.add_parser(
        "lockstep",
        help="run a shard scenario under the lockstep sanitizer",
    )
    lockstep.add_argument(
        "--scenario", default="churn",
        help="shard scenario for the sanitized run (default churn, "
             "whose merged fingerprint is golden-pinned)",
    )
    lockstep.add_argument(
        "--seed", type=int, default=None, help="scenario seed override"
    )
    lockstep.add_argument("--json", metavar="PATH", help="write findings JSON")
    lockstep.set_defaults(handler=cmd_lockstep)

    everything = check_sub.add_parser(
        "all", help="simlint + race + lockstep sanitizers; the CI gate"
    )
    everything.add_argument(
        "paths", nargs="*", help="lint targets (default: src)"
    )
    _add_race_options(everything)
    everything.add_argument(
        "--lockstep-scenario", default="churn",
        help="shard scenario for the lockstep leg (default churn)",
    )
    everything.add_argument(
        "--json", metavar="PATH", help="write combined findings JSON"
    )
    everything.set_defaults(handler=cmd_all)
