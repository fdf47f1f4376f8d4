"""CLI wiring: ``traffic run --trace/--metrics`` and ``repro obs``."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def traced_artifacts(tmp_path_factory):
    """One traced mixed run: the acceptance-path trace + metrics files."""
    directory = tmp_path_factory.mktemp("obs-cli")
    trace = str(directory / "out.json")
    metrics = str(directory / "metrics.csv")
    assert main(
        ["traffic", "run", "mixed", "--trace", trace, "--metrics", metrics]
    ) == 0
    return trace, metrics


class TestTrafficRunFlags:
    def test_trace_is_perfetto_loadable_json(self, traced_artifacts):
        trace, _ = traced_artifacts
        with open(trace) as handle:
            records = json.load(handle)
        assert isinstance(records, list)
        assert all("ph" in record for record in records)
        layers = {
            record["args"]["name"]
            for record in records
            if record.get("ph") == "M" and record.get("name") == "process_name"
        }
        assert len(layers) >= 4, layers

    def test_metrics_csv_has_labeled_counters(self, traced_artifacts):
        _, metrics = traced_artifacts
        with open(metrics) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "name,kind,labels,value"
        assert any(",counter," in line and "engine=a" in line for line in lines)
        assert any("component=traffic" in line for line in lines)

    def test_unknown_trace_layer_fails_loudly(self, capsys, tmp_path):
        assert main(
            ["traffic", "run", "mixed",
             "--trace", str(tmp_path / "x.json"), "--trace-layers", "bogus"]
        ) == 2
        assert "unknown trace layer" in capsys.readouterr().err


class TestObsCommands:
    def test_summary_prints_component_breakdown(self, traced_artifacts, capsys):
        trace, _ = traced_artifacts
        assert main(["obs", "summary", trace]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "a/tx" in out
        assert "occupancy:" in out

    def test_flows_lists_then_renders_one(self, traced_artifacts, capsys):
        trace, _ = traced_artifacts
        assert main(["obs", "flows", trace]) == 0
        listing = capsys.readouterr().out
        assert "traced flow" in listing
        flow = int(listing.split(":")[1].split()[0])
        assert main(["obs", "flows", trace, "--flow", str(flow)]) == 0
        timeline = capsys.readouterr().out
        assert "us" in timeline

    def test_flows_unknown_flow_is_an_error(self, traced_artifacts, capsys):
        trace, _ = traced_artifacts
        assert main(["obs", "flows", trace, "--flow", "999999"]) == 1
        assert "no events" in capsys.readouterr().err

    def test_export_csv(self, traced_artifacts, capsys, tmp_path):
        trace, _ = traced_artifacts
        out = str(tmp_path / "events.csv")
        assert main(["obs", "export", trace, "--csv", out]) == 0
        with open(out) as handle:
            header = handle.readline().strip()
        assert header == "ts_us,layer,component,kind,flow,dur_us,detail"

    def test_bare_obs_prints_usage(self, capsys):
        assert main(["obs"]) == 2
        assert "summary" in capsys.readouterr().out

    def test_summary_missing_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "summary", str(tmp_path / "absent.json")])
