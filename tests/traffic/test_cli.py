"""The ``python -m repro traffic`` subcommands, driven through ``main``."""

import pytest

from repro.__main__ import main


class TestTrafficCli:
    def test_bare_traffic_prints_usage(self, capsys):
        assert main(["traffic"]) == 2
        assert "traffic {run,sweep,list}" in capsys.readouterr().out

    def test_list_describes_scenarios(self, capsys):
        assert main(["traffic", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("mixed", "rpc", "bursts", "churn", "lossy-mixed"):
            assert name in out
        assert "poisson" in out
        assert "zipf" in out

    def test_run_rejects_unknown_scenario(self, capsys):
        assert main(["traffic", "run", "no-such-scenario"]) == 2
        assert "available" in capsys.readouterr().err

    def test_run_mixed_emits_per_class_metrics(self, capsys, tmp_path):
        csv_path = str(tmp_path / "mixed.csv")
        pcap_path = str(tmp_path / "mixed.pcap")
        assert main(
            ["traffic", "run", "mixed", "--audit",
             "--csv", csv_path, "--pcap", pcap_path]
        ) == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out
        for column in ("offered_rps", "achieved_rps", "p50_us", "p99_us"):
            assert column in out
        with open(csv_path) as handle:
            content = handle.read()
        assert content.splitlines()[0].startswith("scenario,backend,seed")
        assert content.count("\n") == 4  # header + 3 classes
        with open(pcap_path, "rb") as handle:
            magic = handle.read(4)
        assert len(magic) == 4  # non-empty capture written

    def test_run_model_backend(self, capsys):
        assert main(
            ["traffic", "run", "rpc", "--backend", "model",
             "--load-scale", "8", "--seed", "3"]
        ) == 0
        assert "model" in capsys.readouterr().out

    def test_run_csv_cells_parse_back_to_the_run_exactly(self, capsys):
        """Cells are ``repr`` floats (not the 2-decimal display format),
        and a rerun writes the same bytes."""
        from repro.traffic import get_scenario, run_scenario_model

        argv = ["traffic", "run", "rpc", "--backend", "model", "--csv", "-"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        text = out[out.index("scenario,backend,seed"):]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(text)
        header, *lines = text.splitlines()
        result = run_scenario_model(get_scenario("rpc"))
        for line, metrics in zip(lines, result.classes.values()):
            cells = dict(zip(header.split(","), line.split(",")))
            assert cells["class"] == metrics.name
            assert float(cells["p99_us"]) == metrics.p99_s * 1e6
            assert float(cells["achieved_rps"]) == metrics.achieved_rps

    def test_model_backend_rejects_pcap(self, capsys):
        assert main(
            ["traffic", "run", "rpc", "--backend", "model", "--pcap", "x.pcap"]
        ) == 2
        assert "functional backend" in capsys.readouterr().err

    def test_sweep_reports_knee(self, capsys, tmp_path):
        csv_path = str(tmp_path / "sweep.csv")
        assert main(
            ["traffic", "sweep", "rpc", "--loads", "0.5,1,2,4,8,12,16,24",
             "--csv", csv_path]
        ) == 0
        out = capsys.readouterr().out
        assert "knee at load" in out
        with open(csv_path) as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("load_scale,")
        assert len(lines) == 9  # header + 8 points
