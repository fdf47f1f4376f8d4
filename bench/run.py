"""The benchmark's one command.

Three ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (the form the benchmark
    driver calls).  Prints every metric by name with its unit, checks the
    outputs, and ends with one JSON line: ``correct``, ``attempted``,
    ``failed``, ``metrics``.  ``--trace 0`` reports the end-to-end
    metrics, ``--trace 1`` installs the span wrappers and reports the
    per-layer metrics.

``python3 bench/run.py [--seed 1234] [--repeats 3] [--quick] [--out F]``
    A full set: every workload in its own fresh subprocess, strictly one
    at a time (peak RSS is per process; two concurrent runs on a two-core
    box inflate each other), repeats interleaved across workloads, then
    one traced run per workload.  Writes a result file with provenance
    and every raw value.

``python3 bench/run.py --compare A.json B.json``
    Checks two result files against each metric's bound.

``python -m bench.run`` from the repo root is the same program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"
OUT_DIR = BENCH_DIR / "out"
MANIFEST = ROOT_DIR / "BENCHMARK.json"

if not (SRC_DIR / "repro" / "__init__.py").is_file():
    # A checkout holding only the benchmark has nothing to measure.
    sys.stderr.write(f"bench: no simulator source at {SRC_DIR}/repro\n")
    raise SystemExit(2)
for _path in (str(SRC_DIR), str(ROOT_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import compare, metrics, spans, workloads  # noqa: E402
from bench.calibrate import Calibrator  # noqa: E402

RUN_SECONDS = 8
SETUP_PROBES = 3
DEFAULT_SEED = 1234


# ------------------------------------------------------------- provenance
def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT_DIR), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha,
        # None outside a git checkout (the driver's copy is not one).
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


# ---------------------------------------------------------------- one run
def _probe_command(args: argparse.Namespace) -> List[str]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    return command + (["--quick"] if args.quick else [])


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(cal: Calibrator, args: argparse.Namespace) -> List[float]:
    """Set-up CPU time at reference speed, once per set-up-only child."""
    samples = []
    for _ in range(2 if args.quick else SETUP_PROBES):
        mark = cal.mark()
        cal.slice()
        cal.slice()
        before = _children_cpu_s()
        subprocess.run(_probe_command(args), check=True, stdout=subprocess.DEVNULL)
        cpu = _children_cpu_s() - before
        cal.slice()
        cal.slice()
        samples.append(cpu * cal.factor(mark))
    return samples


def run_units(
    workload: workloads.Workload,
    cal: Calibrator,
    args: argparse.Namespace,
    tracer: Optional[spans.Tracer],
) -> List[Dict[str, Any]]:
    """Build and time units until ``--seconds`` of wall time is used up
    (at least one; another is started only if it should end within 1.25x
    the budget, so a slow box runs fewer units, not longer runs)."""
    units: List[Dict[str, Any]] = []
    loop_started = perf_counter()
    while True:
        unit_started = perf_counter()
        state = workload.build(args.seed, args.quick)
        if tracer is not None:
            tracer.reset()
        mark = cal.mark()
        cal.slice()
        cal.start()
        try:
            wall_started = perf_counter()
            cpu_started = thread_time()
            if tracer is not None:
                result = tracer.root(lambda: workload.run(state))
            else:
                result = workload.run(state)
            cpu = thread_time() - cpu_started - cal.handler_cpu_since(mark)
            wall = perf_counter() - wall_started
        finally:
            cal.stop()
        cal.slice()
        factor = cal.factor(mark)
        summary = workload.summarize(state, result, args.quick)
        unit: Dict[str, Any] = {
            "wall_s": wall,
            "cpu_s": cpu,
            "speed_factor": factor,
            "ref_s": cpu * factor,
            "ops": summary.ops,
            "summary": summary,
            "digest": workloads.sim_digest(summary),
            # High-water mark so far: after the first unit this is the
            # workload's own peak, however many units the run fits in.
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            unit["rollup"] = tracer.rollup()
            unit["arg_sums"] = dict(tracer.arg_sums)
            unit["groups"] = {k: dict(v) for k, v in tracer.groups.items()}
            unit["records"] = list(tracer.records)
            unit["excluded_s"] = tracer.excluded_s
        units.append(unit)
        del state, result
        gc.collect()
        now = perf_counter()
        if (now - loop_started) + (now - unit_started) > args.seconds * 1.25:
            return units


def end_to_end_metrics(
    units: List[Dict[str, Any]], setup_samples: List[float]
) -> Dict[str, float]:
    offered = sum(u["summary"].offered for u in units)
    completed = sum(u["summary"].completed for u in units)
    return {
        "setup_s": statistics.median(setup_samples),
        "host_us_per_op": statistics.median(
            [u["ref_s"] / max(u["ops"], 1) * 1e6 for u in units]
        ),
        "peak_rss_mib": units[0]["rss_mib"],
        "completed_share": completed / offered,
    }


def sim_stats(workload: workloads.Workload, summary: workloads.Summary) -> Dict[str, float]:
    """The modelled design's results for one unit (simulated time)."""
    stats = dict.fromkeys((n for n, _u, _b in metrics.SIM_STATS), 0.0)
    if summary.sim_elapsed_s > 0:
        stats["sim.ops_per_s"] = summary.completed / summary.sim_elapsed_s
        if summary.payload_bytes is not None:
            stats["sim.goodput_gbps"] = (
                summary.payload_bytes * 8 / summary.sim_elapsed_s / 1e9
            )
    if summary.latencies_s and workload.tail_pct is not None:
        from repro.sim.stats import Histogram

        histogram = Histogram("latency")
        for sample in summary.latencies_s:
            histogram.record(sample)
        stats["sim.p50_us"] = histogram.percentile(50) * 1e6
        stats["sim.tail_us"] = histogram.percentile(workload.tail_pct) * 1e6
    return stats


def per_layer_metrics(
    workload: workloads.Workload, units: List[Dict[str, Any]]
) -> Dict[str, float]:
    first = units[0]
    summary: workloads.Summary = first["summary"]
    out: Dict[str, float] = {}
    # The span clock is wall time (a CPU-time read is a system call, too
    # dear for millions of wrapper calls); a unit's reference time is
    # shared out over its spans by their share of the wall self time.
    inclusive = [sum(c["self_s"] for c in u["rollup"].values()) for u in units]
    for span in spans.SPAN_NAMES + [spans.ROOT]:
        out[f"{span}.calls"] = first["rollup"][span]["calls"]
        out[f"{span}.self_s"] = statistics.median([
            u["rollup"][span]["self_s"] / total * u["ref_s"]
            for u, total in zip(units, inclusive)
        ])
    for name in metrics.COUNT_NAMES:
        out[name] = summary.counts.get(name, 0)
    ticked = first["rollup"]["engine.tick"]["calls"]
    skipped = first["arg_sums"].get("engine.advance", 0)
    out["engine.cycles_ticked"] = ticked
    out["engine.cycles_skipped"] = skipped
    out["engine.skip_ratio"] = skipped / (ticked + skipped) if ticked + skipped else 0.0
    imbalance = []
    for u in units:
        cells = list(u["groups"].get("shard.cell", {}).values())
        if cells and sum(cells) > 0:
            imbalance.append(max(cells) / (sum(cells) / len(cells)))
    out["shard.cell_imbalance"] = statistics.median(imbalance) if imbalance else 0.0
    out.update(sim_stats(workload, summary))
    out["bench.root_self_share"] = statistics.median([
        u["rollup"][spans.ROOT]["self_s"] / total
        for u, total in zip(units, inclusive)
    ])
    out["bench.traced_us_per_op"] = statistics.median(
        [u["ref_s"] / max(u["ops"], 1) * 1e6 for u in units]
    )
    out["bench.wall_s"] = statistics.median([u["wall_s"] for u in units])
    out["bench.speed_factor"] = statistics.median([u["speed_factor"] for u in units])
    return {name: out[name] for name, _unit, _better in metrics.PER_LAYER}


def check_units(
    workload: workloads.Workload, units: List[Dict[str, Any]], traced: bool
) -> List[str]:
    """Every reason this run's outputs are not correct."""
    errors: List[str] = []
    for index, unit in enumerate(units):
        errors += [f"unit {index}: {e}" for e in unit["summary"].errors]
    if len({u["digest"] for u in units}) != 1:
        errors.append("sim_digest differs between units of one run")
    if traced:
        calls = [
            {span: cell["calls"] for span, cell in u["rollup"].items()}
            for u in units
        ]
        if any(c != calls[0] for c in calls[1:]):
            errors.append("span call counts differ between units of one run")
        for span, count in calls[0].items():
            if count and span.startswith(tuple(workload.bypassed)):
                errors.append(
                    f"{span} was called {count} times on a workload that "
                    "is declared to bypass it"
                )
    return errors


def write_trace(
    workload: workloads.Workload,
    unit: Dict[str, Any],
    installed: spans.Installed,
    prov: Dict[str, Any],
) -> Path:
    """Rollup plus the span records above tick level, once at exit."""
    OUT_DIR.mkdir(exist_ok=True)
    records = unit["records"]
    origin = records[0][1] if records else 0.0
    path = OUT_DIR / f"trace-{workload.name}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "provenance": prov,
        "span_table": installed.table,
        "missing_targets": installed.missing,
        "wall_s": unit["wall_s"],
        "speed_factor": unit["speed_factor"],
        "calibration_excluded_s": unit["excluded_s"],
        "rollup": unit["rollup"],
        "records": [
            {"span": span, "start_s": start - origin, "end_s": end - origin,
             "parent": parent}
            for span, start, end, parent in records
        ],
    }, indent=1))
    return path


def single_run(args: argparse.Namespace) -> int:
    workload = workloads.BY_NAME[args.workload]
    traced = bool(args.trace)
    cal = Calibrator()
    setup_samples = measure_setup(cal, args)
    tracer: Optional[spans.Tracer] = None
    installed: Optional[spans.Installed] = None
    if traced:
        tracer = spans.Tracer()
        cal.on_handler = tracer.exclude
        installed = spans.install(tracer)
    try:
        units = run_units(workload, cal, args, tracer)
    finally:
        if installed is not None:
            spans.remove(installed)
    errors = check_units(workload, units, traced)
    prov = provenance(args)
    if traced:
        values = per_layer_metrics(workload, units)
        units_of = metrics.PER_LAYER_UNITS
        trace_path = write_trace(workload, units[0], installed, prov)
        if installed.missing:
            sys.stderr.write(
                "bench: span targets that no longer resolve (their spans "
                f"read 0): {installed.missing}\n"
            )
    else:
        values = end_to_end_metrics(units, setup_samples)
        units_of = metrics.END_TO_END_UNITS
    first: workloads.Summary = units[0]["summary"]
    attempted = sum(u["summary"].offered for u in units)
    failed = sum(u["summary"].failed for u in units)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{len(units)} unit(s) of {units[0]['ops']} ops ({workload.op})")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units_of[name]}")
    if not traced:
        for name, value in sim_stats(workload, first).items():
            print(f"  {name:32s} {value:.6g} {metrics.PER_LAYER_UNITS[name]}")
    else:
        print(f"  trace written to {trace_path.relative_to(ROOT_DIR)}")
    print(f"  sim_digest {units[0]['digest']}")
    for error in errors:
        print(f"  INCORRECT: {error}")

    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": workload.name,
            "traced": traced,
            "provenance": prov,
            "correct": not errors,
            "errors": errors,
            "attempted": attempted,
            "failed": failed,
            "sim_digest": units[0]["digest"],
            "metrics": values,
            "sim_stats": sim_stats(workload, first),
            "setup_samples_s": setup_samples,
            "units": [
                {k: u[k] for k in ("wall_s", "cpu_s", "speed_factor", "ref_s",
                                   "ops", "rss_mib")}
                for u in units
            ],
            "span_table": installed.table if installed else None,
            "missing_targets": installed.missing if installed else None,
        }, indent=1))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in values.items()
        },
    }))
    return 0 if not errors else 1


# --------------------------------------------------------------- full set
def _child(args: argparse.Namespace, workload: str, trace: int, detail: Path) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if not detail.is_file():
        raise SystemExit(f"bench: {workload} (trace {trace}) wrote no result")
    result = json.loads(detail.read_text())
    detail.unlink()
    return result


def full_set(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"detail-{os.getpid()}.json"
    names = [w.name for w in workloads.WORKLOADS]
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    started = perf_counter()
    # Repeats interleave across workloads (A B C ..., A B C ...) so a slow
    # stretch of the box lands on every workload, not on one.
    for _repeat in range(args.repeats):
        for name in names:
            runs[name].append(_child(args, name, 0, scratch))
    for name in names:
        traced[name] = _child(args, name, 1, scratch)

    result = {
        "schema": "bench.results/1",
        "provenance": {**provenance(args), "repeats": args.repeats},
        "total_wall_s": perf_counter() - started,
        "workloads": {},
    }
    ok = True
    for name in names:
        untraced = runs[name]
        table: Dict[str, Any] = {}
        for metric, unit, better, bound, _definition in metrics.END_TO_END:
            values = [r["metrics"][metric] for r in untraced]
            table[metric] = {
                "unit": unit, "better": better, "bound": bound,
                "values": values, **compare.describe(values),
            }
        digests = {r["sim_digest"] for r in untraced} | {traced[name]["sim_digest"]}
        correct = (
            all(r["correct"] for r in untraced)
            and traced[name]["correct"] and len(digests) == 1
        )
        ok = ok and correct
        layer = traced[name]["metrics"]
        layer["bench.trace_overhead"] = (
            layer["bench.traced_us_per_op"] / table["host_us_per_op"]["median"]
        )
        result["workloads"][name] = {
            "correct": correct,
            "errors": sorted({e for r in untraced + [traced[name]] for e in r["errors"]}
                             | ({"sim_digest differs between runs"} if len(digests) > 1 else set())),
            "sim_digest": untraced[0]["sim_digest"],
            "attempted": untraced[0]["attempted"],
            "failed": untraced[0]["failed"],
            "end_to_end": table,
            "sim_stats": untraced[0]["sim_stats"],
            "per_layer": layer,
            "units_per_run": [len(r["units"]) for r in untraced],
            "raw_units": [r["units"] for r in untraced],
            "span_table": traced[name]["span_table"],
            "missing_targets": traced[name]["missing_targets"],
        }
    out = Path(args.out) if args.out else OUT_DIR / f"results-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print()
    for name in names:
        entry = result["workloads"][name]
        print(f"{name}: {'ok' if entry['correct'] else 'INCORRECT'}  "
              f"digest {entry['sim_digest'][:16]}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:18s} median {row['median']:.6g} {row['unit']}  "
                  f"(min {row['min']:.6g}, spread {row['spread']:.1%})")
        print(f"  {'bench.trace_overhead':18s} "
              f"{entry['per_layer']['bench.trace_overhead']:.3f} ratio")
    print(f"\n{result['total_wall_s']:.0f} s; results in {out}")
    return 0 if ok else 1


# --------------------------------------------------------------- manifest
def manifest() -> Dict[str, Any]:
    """BENCHMARK.json, generated so it cannot drift from the code."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _definition in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics.PER_LAYER
        ],
    }


# -------------------------------------------------------------------- cli
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="lengths / 10: a smoke test, not a measurement")
    parser.add_argument("--detail", help="also write this run's raw values here")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="full set: result file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the declarations")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(Path(args.compare[0]), Path(args.compare[1]))
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.setup_probe:
        workloads.BY_NAME[args.workload].build(args.seed, args.quick)
        return 0
    if args.workload:
        return single_run(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
