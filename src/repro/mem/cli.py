"""``python -m repro mem`` — the memory-hierarchy experiment CLI.

Subcommands::

    python -m repro mem stats            # sketch accuracy + policy A/B
    python -m repro mem sweep [--csv]    # geometry x width x churn grid

``stats`` answers "is the machinery working" in one screen: sketch
estimation error against the exact oracle, one cache-geometry replay,
and the reactive-vs-predictive placement comparison.  ``sweep`` runs
the ``mem-geometry`` lab grid in-process and renders it as a table or
byte-deterministic CSV (the mem-smoke CI job runs it twice and
``cmp``'s the files).
"""

from __future__ import annotations

import argparse
import sys

from ..cli import add_group, emit
from .sweep import (
    DEFAULT_BASELINE_GEOMETRY,
    best_improvement,
    compare_policies,
    run_mem_point,
    synth_accesses,
)

#: What a sweep row *is*; ``--csv`` leads with these, then every
#: measured column any row carries (two-level geometries add ``l1_*``).
_IDENTITY = [
    "geometry", "sketch", "sketch_width", "events", "working_set", "churn", "seed",
]


def cmd_stats(args: argparse.Namespace) -> int:
    from .sketch import ExactOracle, accuracy_report, make_sketch

    print("sketch accuracy (countmin vs exact oracle)")
    sketch = make_sketch("countmin", width=args.sketch_width, seed=args.seed)
    oracle = ExactOracle()
    for flow_id in synth_accesses(args.events, seed=args.seed):
        sketch.update(flow_id)
        oracle.update(flow_id)
    report = accuracy_report(sketch, oracle, keys=range(256), k=8)
    for key, value in report.items():
        print(f"  {key:18} {value:.6f}")

    print()
    print(f"cache replay ({args.geometry}, {args.events} accesses)")
    row = run_mem_point(
        geometry=args.geometry,
        sketch_width=args.sketch_width,
        events=args.events,
        seed=args.seed,
    )
    for key in ("hits", "misses", "hit_rate", "writebacks", "dram_charges"):
        value = row[key]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {key:18} {rendered}")

    print()
    print("placement policy A/B (reactive vs predictive, Zipf workload)")
    comparison = compare_policies(seed=args.seed)
    for key, value in comparison.items():
        print(f"  {key:34} {value}")
    reactive = comparison["reactive_congestion_migrations"]
    predictive = comparison["predictive_congestion_migrations"]
    if predictive < reactive:
        print(f"  -> predictive avoids {reactive - predictive} migrations")
        return 0
    print("  -> predictive did NOT reduce migrations", file=sys.stderr)
    return 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from ..analysis.reporting import render_csv, render_table, tabulate
    from ..lab.grids import mem_geometry_grid

    rows = mem_geometry_grid(args.quick, seed=args.seed).records()
    if args.csv is not None:
        ordered = [{**dict.fromkeys(_IDENTITY), **row} for row in rows]
        emit(render_csv(*tabulate(ordered)), args.csv)
    else:
        print(render_table(*tabulate(
            rows, ["geometry", "sketch_width", "churn", "hit_rate", "dram_charges"]
        )))
    best = best_improvement(rows)
    if best is None:
        print("no baseline row swept; cannot rank geometries", file=sys.stderr)
        return 1
    print(
        f"best: {best['geometry']} (width {best['sketch_width']}, churn "
        f"{best['churn']}) saves {best['dram_charges_saved']} DRAM charges "
        f"vs {DEFAULT_BASELINE_GEOMETRY} "
        f"({best['baseline_dram_charges']} -> {best['dram_charges']})"
    )
    return 0 if best["dram_charges_saved"] > 0 else 1


def add_mem_parser(subparsers: argparse._SubParsersAction) -> None:
    mem_sub = add_group(
        subparsers, "mem", help="TCB memory-hierarchy experiments (repro.mem)"
    )

    stats = mem_sub.add_parser(
        "stats", help="sketch accuracy, cache replay, and policy A/B"
    )
    stats.add_argument("--seed", type=int, default=1234, help="top-level seed")
    stats.add_argument(
        "--events", type=int, default=20000, help="replay stream length"
    )
    stats.add_argument(
        "--sketch-width", type=int, default=1024, help="count-min width"
    )
    stats.add_argument(
        "--geometry", default="128x4:freq", metavar="SPEC",
        help="cache geometry for the replay (default 128x4:freq)",
    )
    stats.set_defaults(handler=cmd_stats)

    sweep = mem_sub.add_parser(
        "sweep", help="geometry x sketch-width x churn replay grid"
    )
    sweep.add_argument("--seed", type=int, default=1234, help="top-level seed")
    sweep.add_argument(
        "--quick", action="store_true", help="short streams (CI smoke)"
    )
    sweep.add_argument(
        "--csv", metavar="PATH", help="write sweep CSV ('-' = stdout)"
    )
    sweep.set_defaults(handler=cmd_sweep)
