"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "report" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ISCA 2023" in out
        assert "8 FPCs" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "hello from the demo" in out
        assert "simulated microseconds" in out

    def test_report_single_exhibit(self, capsys):
        assert main(["report", "table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0 with out-of-tolerance checks" in out

    def test_report_with_plots(self, capsys):
        assert main(["report", "figure15", "--quick", "--plots"]) == 0
        out = capsys.readouterr().out
        assert "event rate vs FPU latency" in out
        assert "+----" in out  # the ASCII canvas frame

    def test_report_exits_nonzero_on_failing_checks(self, capsys, monkeypatch):
        """CI gates on this: an out-of-tolerance exhibit fails the run."""
        from repro.analysis import report
        from repro.analysis.reporting import ExperimentResult

        def failing_driver():
            result = ExperimentResult(
                exhibit="Table 1", title="t", columns=["c"], rows=[(1,)]
            )
            result.check("headline", paper=100.0, measured=1.0, tolerance=0.05)
            return result

        monkeypatch.setitem(report.ALL_EXPERIMENTS, "table1", failing_driver)
        assert main(["report", "table1"]) == 1
        assert "1 with out-of-tolerance checks" in capsys.readouterr().out

    def test_report_unknown_exhibit_is_the_shared_usage_error(self, capsys):
        """One parser: the name goes to the exhibit registry, and nothing
        runs before every name has resolved."""
        assert main(["report", "table1", "nosuch", "--quick"]) == 2
        captured = capsys.readouterr()
        assert "unknown exhibit 'nosuch'; available: figure1," in captured.err
        assert "Table 1" not in captured.out

    def test_iperf(self, capsys):
        assert main(["iperf", "--size", "128", "--cores", "2", "--bytes", "200000"]) == 0
        out = capsys.readouterr().out
        assert "modelled" in out
        assert "functional" in out


class TestStatsReport:
    def test_aggregates_every_module(self):
        from repro.engine.testbed import Testbed

        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, bytes(10_000))
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 10_000,
            max_time_s=0.05,
        )
        report = testbed.engine_a.stats_report()
        assert report["engine"]["packets_sent"] >= 7
        assert report["scheduler"]["events_routed"] >= 2
        assert report["packet_generator"]["bytes"] == 10_000
        assert report["arp"]["requests_sent"] == 1
        assert sum(f["flows"] for f in report["fpcs"].values()) == 1
