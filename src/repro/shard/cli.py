"""``python -m repro shard`` — sharded multi-process simulation.

Subcommands::

    python -m repro shard list                 # shard + traffic scenarios
    python -m repro shard run megaflow         # one sharded run
    python -m repro shard run mixed --cells 3  # class-split traffic shard
    python -m repro shard sweep churn          # fingerprint vs worker count
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional, TextIO

from ..cli import add_group, comma_list

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .runner import ShardResult


def _cmd_list(_args: argparse.Namespace) -> int:
    from ..traffic.scenario import available_scenarios
    from .scenarios import available_shard_scenarios, get_shard_scenario

    print("shard scenarios (fabric cells, lockstep epochs):")
    for name in available_shard_scenarios():
        print(f"  {get_shard_scenario(name).describe()}")
    print()
    print("traffic scenarios (class-split cells, via: shard run <name>):")
    for name in available_scenarios():
        print(f"  {name}")
    return 0


def _run(
    args: argparse.Namespace,
    workers: int,
    fingerprint: Optional[bool],
    progress: Optional[TextIO] = None,
    load_scale: float = 1.0,
) -> "ShardResult":
    """One run at one worker count: a shard scenario by that name, else
    a traffic scenario split by class into cells."""
    from ..traffic.scenario import get_scenario
    from .runner import run_shard, run_traffic_shard
    from .scenarios import SHARD_SCENARIOS, get_shard_scenario

    if args.scenario in SHARD_SCENARIOS:
        scenario = get_shard_scenario(args.scenario, seed=args.seed)
        if args.dry:
            scenario = scenario.scaled(128)
        return run_shard(
            scenario, workers=workers, fingerprint=fingerprint, progress=progress
        )
    return run_traffic_shard(
        get_scenario(args.scenario, seed=args.seed),
        cells=args.cells,
        workers=workers,
        load_scale=load_scale,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    fingerprint: Optional[bool] = None  # scenario default
    if args.fingerprint:
        fingerprint = True
    elif args.no_fingerprint:
        fingerprint = False
    result = _run(
        args, args.workers, fingerprint,
        progress=None if args.json else sys.stderr,
        load_scale=args.load_scale,
    )
    if args.json:
        json.dump(result.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(result.summary())
    return 0 if result.finished else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run one scenario at several worker counts; the merged
    fingerprint must not move.  Exit 1 when it does — this is the
    determinism check CI leans on."""
    rows: List["ShardResult"] = []
    for workers in args.workers_list:
        result = _run(args, workers, fingerprint=True)
        rows.append(result)
        print(
            f"workers={workers:<3d} epochs={result.epochs:<6d} "
            f"{result.elapsed_s:6.1f}s  {result.fingerprint}"
        )
    fingerprints = {result.fingerprint for result in rows}
    if len(fingerprints) != 1:
        print("FINGERPRINT MISMATCH across worker counts", file=sys.stderr)
        return 1
    counts = ",".join(str(workers) for workers in args.workers_list)
    print(f"deterministic across workers {counts}: {rows[0].fingerprint}")
    return 0


def add_shard_parser(subparsers: argparse._SubParsersAction) -> None:
    shard_sub = add_group(
        subparsers, "shard",
        help="sharded multi-process simulation for million-flow runs "
             "(repro.shard)",
    )

    run = shard_sub.add_parser("run", help="run one sharded scenario")
    run.add_argument("scenario",
                     help="shard or traffic scenario (see: shard list)")
    run.add_argument("--workers", type=int, default=4,
                     help="worker processes (default 4; 1 = in-process)")
    run.add_argument("--seed", type=int, default=None, help="top-level seed")
    run.add_argument("--cells", type=int, default=None,
                     help="traffic shards: cell count (default: one per class)")
    run.add_argument("--load-scale", type=float, default=1.0,
                     help="traffic shards: multiply arrival rates")
    run.add_argument("--dry", action="store_true",
                     help="1/128-scale dry run (shard scenarios only)")
    run.add_argument("--fingerprint", action="store_true",
                     help="force trace fingerprinting on")
    run.add_argument("--no-fingerprint", action="store_true",
                     help="force trace fingerprinting off")
    run.add_argument("--json", action="store_true",
                     help="machine-readable result on stdout")
    run.set_defaults(handler=_cmd_run)

    sweep = shard_sub.add_parser(
        "sweep", help="fingerprint equality across worker counts"
    )
    sweep.add_argument("scenario", nargs="?", default="churn",
                       help="scenario (default: churn)")
    sweep.add_argument("--workers-list", default="1,2,4", metavar="W1,W2,...",
                       type=comma_list(int),
                       help="worker counts to compare (default 1,2,4)")
    sweep.add_argument("--seed", type=int, default=None, help="top-level seed")
    sweep.add_argument("--cells", type=int, default=None,
                       help="traffic shards: cell count")
    sweep.add_argument("--dry", action="store_true",
                       help="1/128-scale dry run (shard scenarios only)")
    sweep.set_defaults(handler=_cmd_sweep)

    shard_sub.add_parser(
        "list", help="available shard + traffic scenarios"
    ).set_defaults(handler=_cmd_list)
