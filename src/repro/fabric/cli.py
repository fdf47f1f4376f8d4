"""``python -m repro fabric`` — backends and fabric scenarios.

Subcommands::

    python -m repro fabric list               # scenarios + backends
    python -m repro fabric run incast ...     # one scenario, one backend
    python -m repro fabric sweep ...          # head-to-head comparison
"""

from __future__ import annotations

import argparse

from ..cli import add_group, comma_list, emit, host_count, positive

_SWEEP_COLUMNS = [
    "backend", "provenance", "completed", "goodput_gbps",
    "p50_us", "p99_us", "retransmits", "switch_drops", "ecn_marks",
]
_CSV_COLUMNS = ["scenario", "num_hosts", "seed", "load_scale"] + _SWEEP_COLUMNS


def _cmd_list(_args: argparse.Namespace) -> int:
    from .backend import available_backends, get_backend
    from .scenarios import available_fabric_scenarios, get_fabric_scenario

    print("backends:")
    for name in available_backends():
        spec = get_backend(name)
        print(f"  {name} [{spec.kind}, {spec.provenance}] — {spec.title}")
    print()
    print("fabric scenarios:")
    for name in available_fabric_scenarios():
        print(f"  {get_fabric_scenario(name).describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .engine import run_fabric
    from .scenarios import get_fabric_scenario

    scenario = get_fabric_scenario(
        args.scenario, num_hosts=args.hosts, seed=args.seed
    )
    bus = None
    if args.trace:
        from ..obs import DEFAULT_MAX_EVENTS, TraceBus

        bus = TraceBus(max_events=args.trace_events or DEFAULT_MAX_EVENTS)
    result = run_fabric(
        scenario,
        backend=args.backend,
        load_scale=args.load_scale,
        trace=bus,
    )
    print(result.summary())
    for key, value in result.scalars().items():
        print(f"  {key:>16}: {value:g}")
    if bus is not None:
        from ..obs import save_trace

        save_trace(args.trace, bus)
    return 0 if result.finished else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The ``fabric-backends`` grid, run in-process on the verb's flags."""
    from ..analysis.reporting import render_csv, render_table, tabulate
    from ..lab.grids import fabric_backends_grid
    from .backend import available_backends, get_backend
    from .scenarios import get_fabric_scenario

    # Resolve every name before the first run: a typo is exit 2 now,
    # not after the backends in front of it have run to completion.
    scenario = get_fabric_scenario(
        args.scenario, num_hosts=args.hosts, seed=args.seed
    )
    specs = [get_backend(name) for name in args.backends or available_backends()]
    records = fabric_backends_grid(
        scenario=scenario.name,
        backends=[spec.name for spec in specs],
        num_hosts=args.hosts,
        seed=args.seed,
        load_scale=args.load_scale,
    ).records()
    for record, spec in zip(records, specs):
        record.update(seed=scenario.seed, provenance=spec.provenance)
    print(f"{scenario.name}: {scenario.num_hosts} hosts, seed {scenario.seed}, "
          f"load x{args.load_scale:g}")
    print()
    print(render_table(*tabulate(records, _SWEEP_COLUMNS)))
    if args.csv is not None:
        emit(render_csv(*tabulate(records, _CSV_COLUMNS)), args.csv)
    return 0 if all(record["finished"] for record in records) else 1


def add_fabric_parser(subparsers: argparse._SubParsersAction) -> None:
    fabric_sub = add_group(
        subparsers, "fabric",
        help="offload backends + multi-host fabric scenarios (repro.fabric)",
    )

    run = fabric_sub.add_parser("run", help="run one scenario on one backend")
    run.add_argument("scenario", help="fabric scenario (see: fabric list)")
    run.add_argument("--backend", default="f4t",
                     help="backend name (see: fabric list)")
    run.add_argument("--hosts", type=host_count, default=None,
                     help="number of hosts (default: scenario preset)")
    run.add_argument("--seed", type=int, default=None, help="top-level seed")
    run.add_argument("--load-scale", type=positive, default=1.0,
                     help="multiply open-loop arrival rates")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome/Perfetto trace-event JSON")
    run.add_argument("--trace-events", type=int, default=None,
                     help="trace event cap (default 250000)")
    run.set_defaults(handler=_cmd_run)

    sweep = fabric_sub.add_parser(
        "sweep", help="run one scenario across backends, head to head"
    )
    sweep.add_argument("scenario", nargs="?", default="incast",
                       help="fabric scenario (default: incast)")
    sweep.add_argument("--backends", default=None, metavar="B1,B2,...",
                       type=comma_list(str),
                       help="comma-separated backends (default: all four)")
    sweep.add_argument("--hosts", type=host_count, default=8,
                       help="number of hosts (default 8)")
    sweep.add_argument("--seed", type=int, default=None, help="top-level seed")
    sweep.add_argument("--load-scale", type=positive, default=1.0,
                       help="multiply open-loop arrival rates")
    sweep.add_argument("--csv", metavar="PATH",
                       help="write the comparison CSV ('-' = stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    fabric_sub.add_parser(
        "list", help="available backends and fabric scenarios"
    ).set_defaults(handler=_cmd_list)
