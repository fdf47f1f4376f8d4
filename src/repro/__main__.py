"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro info              # what this package is
    python -m repro report [--quick]  # regenerate every paper exhibit
    python -m repro demo              # the quickstart client/server run
    python -m repro traffic run ...   # scenario-driven load generation
    python -m repro lab run ...       # parallel, resumable sweeps
    python -m repro obs summary ...   # inspect exported traces
    python -m repro check all         # static analyzer + race sanitizer
    python -m repro fabric sweep ...  # backend head-to-head over a fabric
    python -m repro shard run ...     # sharded multi-process simulation
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import CorruptStoreError, UnknownNameError
from repro.cli import add_group, comma_list, emit, positive

#: Default run-store location; ``*.sqlite`` is gitignored.
DEFAULT_LAB_DB = "lab.sqlite"


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro.engine.ftengine import FtEngineConfig
    from repro.tcp.congestion import available_algorithms

    config = FtEngineConfig()
    print(f"repro {repro.__version__} — reproduction of:")
    print(f"  {repro.__paper__}")
    print()
    print("reference design:")
    print(f"  {config.num_fpcs} FPCs x {config.fpc_slots} flows "
          f"({config.sram_flow_capacity} SRAM-resident), {config.memory} TCB store")
    print(f"  congestion algorithms: {', '.join(sorted(available_algorithms()))}")
    print()
    print("try:  python -m repro demo")
    print("      python -m repro report --quick")
    print("      pytest benchmarks/ --benchmark-only")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_all
    from repro.analysis.reporting import render

    failures = 0
    started = time.time()
    results = run_all(args.exhibits, quick=args.quick)
    for name, result in results.items():
        print()
        print(render(result))
        if args.plots:
            from repro.analysis.plots import EXHIBIT_PLOTS

            plotter = EXHIBIT_PLOTS.get(name)
            if plotter is not None:
                print()
                print(plotter(result))
        if not result.all_checks_pass():
            failures += 1
    print()
    print(
        f"ran {len(results)} exhibits in {time.time() - started:.0f}s wall; "
        f"{failures} with out-of-tolerance checks"
    )
    return 1 if failures else 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.engine import Testbed
    from repro.host import F4TLibrary

    testbed = Testbed()
    pump = lambda cond, t: testbed.run(until=cond, max_time_s=testbed.now_s + t)
    lib_a = F4TLibrary(testbed.engine_a, pump=pump)
    lib_b = F4TLibrary(testbed.engine_b, pump=pump)

    server = lib_b.socket()
    server.bind_listen(80)
    client = lib_a.socket()
    client.connect((testbed.engine_b.ip, 80))
    connection = server.accept()
    client.sendall(b"hello from the demo")
    print("server received:", connection.recv_exactly(19))
    connection.sendall(b"and hello back")
    print("client received:", client.recv_exactly(14))
    client.close()
    connection.close()
    testbed.run(
        until=lambda: not testbed.engine_a.flows and not testbed.engine_b.flows,
        max_time_s=10.0,
    )
    print(f"done in {testbed.now_s * 1e6:.1f} simulated microseconds; "
          f"{testbed.wire.bytes_sent} bytes on the wire")
    return 0


def _cmd_iperf(args: argparse.Namespace) -> int:
    """Model + functional bulk measurement, iPerf style (Fig 8a/9)."""
    from repro.apps.iperf import BulkTransferModel, run_functional_bulk

    point = BulkTransferModel(cores=args.cores).request_rate(args.size)
    print(f"modelled  : {point.goodput_gbps:6.1f} Gbps "
          f"({point.requests_per_s / 1e6:.1f} Mrps, "
          f"{args.size} B requests, {args.cores} cores, "
          f"bound by {point.bottleneck})")
    result = run_functional_bulk(
        total_bytes=args.bytes, request_bytes=max(args.size, 64)
    )
    print(f"functional: {result.goodput_gbps:6.1f} Gbps moving "
          f"{result.bytes_delivered} real bytes through the engines "
          f"in {result.elapsed_s * 1e6:.1f} simulated us")
    print("(the functional run is a single unpaced flow on the simulated "
          "wire; the modelled number includes the calibrated host terms)")
    return 0


# -------------------------------------------------------------- traffic
_TRAFFIC_SWEEP_COLUMNS = [
    "load_scale", "offered_rps", "achieved_rps", "p50_us", "p99_us",
    "goodput_gbps", "knee",
]


def _cmd_traffic_list(_args: argparse.Namespace) -> int:
    from repro.traffic import available_scenarios, get_scenario

    for name in available_scenarios():
        print(get_scenario(name).describe())
        print()
    return 0


def _cmd_traffic_run(args: argparse.Namespace) -> int:
    from repro.traffic import LoadEngine, get_scenario

    scenario = get_scenario(args.scenario, seed=args.seed)
    tap = None
    bus = None
    engine = LoadEngine(scenario, load_scale=args.load_scale, audit=args.audit)
    if args.pcap:
        from repro.net.pcap import WireTap

        tap = WireTap.attach(engine.testbed.wire.port_a)
    if args.trace:
        from repro.obs import DEFAULT_MAX_EVENTS, TraceBus, attach_load_engine

        try:
            bus = TraceBus(
                layers=args.trace_layers,
                max_events=args.trace_events or DEFAULT_MAX_EVENTS,
                sampling=args.trace_sampling,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        attach_load_engine(engine, bus)
    result = engine.run()
    print(result.summary())
    print(result.table())
    if args.csv is not None:
        emit(result.to_csv(), args.csv)
    if tap is not None and args.pcap:
        packets = tap.save(args.pcap)
        print(f"wrote {args.pcap} ({packets} packets)")
    if bus is not None:
        from repro.obs import save_trace

        save_trace(args.trace, bus)
    if args.metrics:
        from repro.obs import collect_traced_run

        registry = collect_traced_run(engine.testbed, result)
        emit(registry.snapshot().to_csv(), args.metrics)
    if result.violations:
        for violation in result.violations:
            print(f"  invariant violation: {violation}", file=sys.stderr)
        return 1
    return 0 if result.finished else 1


def _cmd_traffic_sweep(args: argparse.Namespace) -> int:
    """The ``traffic-load`` grid, run in-process on the verb's flags."""
    from repro.analysis.reporting import render_csv, render_table, tabulate
    from repro.lab.grids import traffic_load_grid
    from repro.traffic import detect_knee

    records = traffic_load_grid(
        scenario=args.scenario, loads=args.loads, seed=args.seed,
    ).records()
    knee = detect_knee(
        [r["offered_rps"] for r in records], [r["p99_us"] for r in records]
    )
    for index, record in enumerate(records):
        record["knee"] = "*" if index == knee else ""
    head = f"sweep[{args.scenario}]: {len(records)} points"
    if knee is None:
        print(head + ", no knee detected")
    else:
        at = records[knee]
        print(head + f", knee at load x{at['load_scale']:g} "
              f"({at['offered_rps']:.3g} rps offered, p99={at['p99_us']:.3g}us)")
    table = tabulate(records, _TRAFFIC_SWEEP_COLUMNS)
    print(render_table(*table))
    if args.csv is not None:
        emit(render_csv(*table), args.csv)
    return 0


def _add_traffic_parser(subparsers: argparse._SubParsersAction) -> None:
    traffic_sub = add_group(
        subparsers, "traffic",
        help="scenario-driven load generation (repro.traffic)",
    )

    run = traffic_sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario", help="scenario name (see: traffic list)")
    run.add_argument("--seed", type=int, default=None, help="top-level seed")
    run.add_argument("--load-scale", type=positive, default=1.0,
                     help="multiply every open-loop arrival rate")
    run.add_argument("--audit", action="store_true",
                     help="run invariant monitors during the run")
    run.add_argument("--csv", metavar="PATH", help="write per-class CSV ('-' = stdout)")
    run.add_argument("--pcap", metavar="PATH", help="capture the wire to a pcap file")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome/Perfetto trace-event JSON")
    run.add_argument("--trace-layers", metavar="L1,L2,...", default=None,
                     type=comma_list(str),
                     help="layers to trace (default all; 'engine' = engine.*)")
    run.add_argument("--trace-events", type=int, default=None,
                     help="event cap (default 250000)")
    run.add_argument("--trace-sampling", choices=["head", "reservoir"],
                     default="head", help="policy once the cap is hit")
    run.add_argument("--metrics", metavar="PATH",
                     help="write the labeled metrics snapshot CSV ('-' = stdout)")
    run.set_defaults(handler=_cmd_traffic_run)

    sweep = traffic_sub.add_parser("sweep", help="latency-vs-load sweep")
    sweep.add_argument("scenario", help="scenario name (see: traffic list)")
    sweep.add_argument("--seed", type=int, default=None, help="top-level seed")
    sweep.add_argument("--loads", default="0.5,1,2,4,8,12,16,24",
                       type=comma_list(positive),
                       help="comma-separated load scales")
    sweep.add_argument("--csv", metavar="PATH", help="write sweep CSV ('-' = stdout)")
    sweep.set_defaults(handler=_cmd_traffic_sweep)

    traffic_sub.add_parser(
        "list", help="available scenarios"
    ).set_defaults(handler=_cmd_traffic_list)


# ------------------------------------------------------------------ lab
def _cmd_lab_list(_args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.lab.grids import available_grids, get_grid

    rows = []
    for name in available_grids():
        grid = get_grid(name)
        rows.append((name, len(grid.expand()), grid.description))
    print(render_table(["grid", "points", "description"], rows))
    return 0


def _cmd_lab_run(args: argparse.Namespace) -> int:
    from repro.lab import run_grid
    from repro.lab.grids import available_grids, get_grids

    if not args.grids:
        print(
            "no grid named; available: " + ", ".join(available_grids()),
            file=sys.stderr,
        )
        return 2
    grids = get_grids(args.grids, quick=args.quick)
    report = run_grid(
        grids,
        args.db,
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.retries,
        progress=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_lab_status(args: argparse.Namespace) -> int:
    from repro.lab import RunStore
    from repro.lab.export import status_table

    with RunStore(args.db) as store:
        totals = store.totals()
        if not sum(totals.values()):
            print(f"{args.db}: no runs recorded yet (try: python -m repro lab list)")
            return 0
        print(status_table(store))
        for record in store.records(status="error"):
            first_line = (record.error or "").splitlines()[0] if record.error else ""
            print(
                f"  error {record.run_id} [{record.experiment}] "
                f"after {record.attempts} attempts: {first_line}"
            )
    return 0


def _cmd_lab_retry(args: argparse.Namespace) -> int:
    from repro.lab import RunStore

    with RunStore(args.db) as store:
        reclaimed = store.reset_running(args.grids or None)
        reset = store.reset_errors(args.grids or None)
    print(
        f"reset {reset} error run(s) and reclaimed {reclaimed} stale "
        f"running run(s) to pending; rerun with: python -m repro lab run"
    )
    return 0


def _cmd_lab_export(args: argparse.Namespace) -> int:
    from repro.lab import RunStore
    from repro.lab.export import export_csv, export_markdown

    with RunStore(args.db) as store:
        if args.csv is not None:
            emit(export_csv(store, experiment=args.grid), args.csv)
        else:
            print(export_markdown(store, experiment=args.grid))
    return 0


def _add_lab_parser(subparsers: argparse._SubParsersAction) -> None:
    lab_sub = add_group(
        subparsers, "lab",
        help="parallel, persistent experiment sweeps (repro.lab)",
    )

    def add_db(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--db", default=DEFAULT_LAB_DB, help="run-store path (SQLite)"
        )

    run = lab_sub.add_parser("run", help="sync grid(s) into the store and run them")
    run.add_argument("grids", nargs="*", help="grid names (see: lab list)")
    run.add_argument("--workers", type=int, default=1, help="worker processes")
    run.add_argument("--quick", action="store_true", help="reduced sample counts")
    run.add_argument("--timeout", type=float, default=300.0, help="per-run seconds")
    run.add_argument("--retries", type=int, default=2, help="retries per run")
    add_db(run)
    run.set_defaults(handler=_cmd_lab_run)

    status = lab_sub.add_parser("status", help="per-grid state counts")
    add_db(status)
    status.set_defaults(handler=_cmd_lab_status)

    retry = lab_sub.add_parser("retry", help="reset error/stale runs to pending")
    retry.add_argument("grids", nargs="*", help="limit to these grids")
    add_db(retry)
    retry.set_defaults(handler=_cmd_lab_retry)

    export = lab_sub.add_parser("export", help="dump results (Markdown or CSV)")
    export.add_argument("grid", nargs="?", default=None, help="one grid (default all)")
    export.add_argument("--csv", metavar="PATH", help="write CSV here ('-' = stdout)")
    add_db(export)
    export.set_defaults(handler=_cmd_lab_export)

    lab_sub.add_parser("list", help="available prebuilt grids").set_defaults(
        handler=_cmd_lab_list
    )


def build_parser() -> argparse.ArgumentParser:
    """Every verb: the top-level ones and the ``traffic``/``lab`` groups
    declared here, the other groups in their package's ``cli.py``.  Each
    leaf names its handler with ``set_defaults(handler=fn)``; ``main``
    parses and calls it."""
    import repro
    from repro.check.cli import add_check_parser
    from repro.fabric.cli import add_fabric_parser
    from repro.obs.cli import add_obs_parser
    from repro.shard.cli import add_shard_parser

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    info = subparsers.add_parser("info", help="package and design summary")
    info.set_defaults(handler=_cmd_info)
    report = subparsers.add_parser("report", help="regenerate paper exhibits")
    report.add_argument("exhibits", nargs="*", help="subset of exhibits")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--plots", action="store_true")
    report.set_defaults(handler=_cmd_report)
    demo = subparsers.add_parser("demo", help="run the quickstart demo")
    demo.set_defaults(handler=_cmd_demo)
    iperf = subparsers.add_parser("iperf", help="bulk-transfer measurement")
    iperf.add_argument("--size", type=int, default=128, help="request bytes")
    iperf.add_argument("--cores", type=int, default=2, help="CPU cores")
    iperf.add_argument(
        "--bytes", type=int, default=500_000, help="functional transfer size"
    )
    iperf.set_defaults(handler=_cmd_iperf)
    _add_traffic_parser(subparsers)
    _add_lab_parser(subparsers)
    add_obs_parser(subparsers)
    add_check_parser(subparsers)
    add_fabric_parser(subparsers)
    add_shard_parser(subparsers)
    return parser


def main() -> int:
    parser = build_parser()
    args = parser.parse_args()
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return args.handler(args)
    except (UnknownNameError, CorruptStoreError) as exc:
        # No such scenario/backend/grid (the message lists what exists),
        # or a --db file that is not a run store (the message names it).
        print(exc.args[0], file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `... lab export | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
