"""The ``python -m repro fabric`` subcommands, driven through ``main``."""

import json

from .._cli import main


class TestFabricCli:
    def test_bare_fabric_prints_usage(self, capsys):
        assert main(["fabric"]) == 2
        assert "fabric {run,sweep,list}" in capsys.readouterr().out

    def test_list_names_backends_and_scenarios(self, capsys):
        assert main(["fabric", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("f4t", "flextoe", "pno", "linux_stack"):
            assert name in out
        for name in ("incast", "outcast", "flash_crowd", "zipf_fanout"):
            assert name in out
        assert "paper-backed" in out
        assert "model-backed" in out

    def test_run_rejects_unknown_scenario(self, capsys):
        assert main(["fabric", "run", "bisection"]) == 2
        assert "available" in capsys.readouterr().err

    def test_run_rejects_unknown_backend(self, capsys):
        assert main(["fabric", "run", "incast", "--backend", "quantum"]) == 2
        assert "available" in capsys.readouterr().err

    def test_run_incast_reports_scalars(self, capsys):
        assert main(
            ["fabric", "run", "incast", "--hosts", "4", "--backend", "flextoe"]
        ) == 0
        out = capsys.readouterr().out
        for key in ("goodput_gbps", "p99_us", "switch_drops", "ecn_marks"):
            assert key in out

    def test_run_writes_perfetto_trace(self, capsys, tmp_path):
        trace_path = str(tmp_path / "fabric.json")
        assert main(
            ["fabric", "run", "incast", "--hosts", "4",
             "--backend", "flextoe", "--trace", trace_path]
        ) == 0
        with open(trace_path) as handle:
            records = json.load(handle)
        assert records
        threads = {
            r["args"]["name"]
            for r in records
            if r.get("ph") == "M" and r.get("name") == "thread_name"
        }
        assert "switch" in threads
        assert any(t.startswith("h") for t in threads)

    def test_sweep_writes_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "sweep.csv")
        assert main(
            ["fabric", "sweep", "incast", "--hosts", "4",
             "--backends", "f4t,flextoe", "--csv", csv_path]
        ) == 0
        out = capsys.readouterr().out
        assert "f4t" in out and "flextoe" in out
        with open(csv_path) as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("scenario,num_hosts,seed")
        assert len(lines) == 3  # header + 2 backends
