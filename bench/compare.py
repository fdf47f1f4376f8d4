"""Compare two result files of bench/run.py against each metric's bound.

One row per (workload, end-to-end metric).  A metric whose own run-to-run
spread (interquartile distance over median, in either file) exceeds its
bound is ``unresolved``, not ``unchanged`` — unless every run of one file
reads better than every run of the other.  The simulated statistics, the
exact per-layer counts and ``sim_digest`` are deterministic and must be
byte-equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List

from bench import metrics


def describe(values: List[float]) -> Dict[str, float]:
    """Median, extremes, quartiles and spread (IQR / median) of repeats."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def verdict(row_a: Dict[str, Any], row_b: Dict[str, Any]) -> str:
    """How B's metric stands against A's, by the metric's own bound."""
    lower = row_a["better"] == "lower"
    a, b = row_a["values"], row_b["values"]
    # Worsening of the median as a share of A's median.
    change = (row_b["median"] - row_a["median"]) / row_a["median"]
    worse = change if lower else -change
    if lower:
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    bound = row_a["bound"]
    if max(row_a["spread"], row_b["spread"]) > bound:
        if all_worse and worse > bound:
            return "regressed"
        if all_better:
            return "improved"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if all_better and -worse > bound:
        return "improved"
    return "unchanged"


def main(path_a: Path, path_b: Path) -> int:
    set_a = json.loads(path_a.read_text())
    set_b = json.loads(path_b.read_text())
    for label, result in (("A", set_a), ("B", set_b)):
        prov = result["provenance"]
        dirty = {True: "+dirty", False: "", None: ""}[prov["git_dirty"]]
        print(f"{label}: {prov['git_sha']}{dirty}  seed {prov['seed']}  "
              f"{prov['repeats']} repeats  python {prov['python']}  "
              f"{prov['nproc']} cpus")
    exact_names = (
        metrics.COUNT_NAMES + [n for n, _u, _b in metrics.SIM_STATS]
        + [n for n, _u, _b in metrics.PER_LAYER if n.endswith(".calls")]
    )
    counts = {"regressed": 0, "unresolved": 0, "differs": 0}
    print(f"\n{'workload':18s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread A/B':>13s} {'bound':>6s}  verdict")
    for name, entry_a in set_a["workloads"].items():
        entry_b = set_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:18s} missing from B")
            counts["differs"] += 1
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            outcome = verdict(row_a, row_b)
            counts[outcome] = counts.get(outcome, 0) + 1
            change = (row_b["median"] - row_a["median"]) / row_a["median"]
            print(f"{name:18s} {metric:16s} {row_a['median']:12.6g} "
                  f"{row_b['median']:12.6g} {change:+8.1%} "
                  f"{row_a['spread']:6.1%}/{row_b['spread']:6.1%} "
                  f"{row_a['bound']:6.1%}  {outcome}")
        layer_a, layer_b = entry_a["per_layer"], entry_b["per_layer"]
        different = [k for k in exact_names if layer_a.get(k) != layer_b.get(k)]
        same_digest = entry_a["sim_digest"] == entry_b["sim_digest"]
        if different or not same_digest:
            counts["differs"] += 1
        print(f"{name:18s} {'sim_digest':16s} "
              f"{'identical' if same_digest else 'DIFFERS'}; exact counts and "
              f"simulated statistics: "
              f"{'identical' if not different else 'DIFFER: ' + ', '.join(different)}")
        for label, entry in (("A", entry_a), ("B", entry_b)):
            if not entry["correct"]:
                counts["differs"] += 1
                print(f"{name:18s} {label} was INCORRECT: {entry['errors']}")
    print(f"\n{counts['regressed']} regressed, {counts['unresolved']} unresolved, "
          f"{counts['differs']} exact mismatches")
    return 1 if counts["regressed"] or counts["differs"] else 0
