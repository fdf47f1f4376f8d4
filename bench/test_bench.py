"""Smoke and contract tests for the benchmark itself.

Run with ``python -m pytest bench/`` from the repo root; deliberately not
in the tier-1 ``testpaths``.  Everything here uses ``--quick`` lengths.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import metrics, run, spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def _single(workload: str, trace: int, detail: Path) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--quick", "--detail", str(detail)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_is_generated_from_the_declarations():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == run.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(manifest["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_quick_full_set_smoke(tmp_path):
    out = tmp_path / "results.json"
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--quick", "--repeats", "1", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 60, f"quick set took {elapsed:.0f} s"
    result = json.loads(out.read_text())
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    assert {"git_sha", "git_dirty", "python", "nproc", "seed", "repeats"} <= set(
        result["provenance"]
    )
    for entry in result["workloads"].values():
        assert entry["correct"], entry["errors"]
        assert entry["failed"] == 0
        assert list(entry["end_to_end"]) == [m["name"] for m in manifest["end_to_end"]]
        assert set(m["name"] for m in manifest["per_layer"]) <= set(entry["per_layer"])
        assert not entry["missing_targets"]
        assert all(entry["span_table"][span] or span == "traffic.pump"
                   for span in spans.SPAN_NAMES)


def test_single_run_prints_the_declared_metrics_and_one_digest(tmp_path):
    untraced = _single("rr_spill", 0, tmp_path / "u.json")
    traced = _single("rr_spill", 1, tmp_path / "t.json")
    for line, declared in (
        (untraced, [m[0] for m in metrics.END_TO_END]),
        (traced, [m[0] for m in metrics.PER_LAYER]),
    ):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == declared
    assert all(v["value"] != 0 for v in untraced["metrics"].values())
    # Tracing must not change what was simulated.
    digest_u = json.loads((tmp_path / "u.json").read_text())["sim_digest"]
    digest_t = json.loads((tmp_path / "t.json").read_text())["sim_digest"]
    assert digest_u == digest_t
    # The spill workload is the one that exercises the memory path.
    assert traced["metrics"]["mem.access.calls"]["value"] > 0
    assert traced["metrics"]["fabric.softstack.calls"]["value"] == 0


def test_wrappers_are_fully_removed():
    from repro.analysis.experiments import ALL_EXPERIMENTS
    from repro.engine.ftengine import FtEngine
    from repro.fabric import engine as fabric_engine
    from repro.fabric.service import F4TService

    before = (
        FtEngine.__dict__["tick"], F4TService.__dict__["tx_ready_ps"],
        fabric_engine.run_fabric, ALL_EXPERIMENTS["figure8"],
    )
    installed = spans.install(spans.Tracer())
    try:
        during = (
            FtEngine.__dict__["tick"], F4TService.__dict__["tx_ready_ps"],
            fabric_engine.run_fabric, ALL_EXPERIMENTS["figure8"],
        )
        assert not installed.missing
        assert all(d is not b for d, b in zip(during, before))
    finally:
        spans.remove(installed)
    after = (
        FtEngine.__dict__["tick"], F4TService.__dict__["tx_ready_ps"],
        fabric_engine.run_fabric, ALL_EXPERIMENTS["figure8"],
    )
    assert all(a is b for a, b in zip(after, before))
    assert not installed.patches


def test_benchmark_refuses_a_checkout_without_the_simulator(tmp_path):
    (tmp_path / "bench").mkdir()
    for source in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rr_spill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

