"""cwnd-trace analysis helpers and the report entry point."""

import pytest

from repro.analysis import cwnd
from repro.analysis.cwnd import (
    PeriodicDataDropper,
    TraceComparison,
    compare_traces,
    count_multiplicative_decreases,
)
from repro.analysis.report import EXHIBIT_ORDER, run_all
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.refsim.netsim import CwndTrace
from repro.tcp.segment import TcpSegment


def data_frame(payload=b"x" * 100):
    segment = TcpSegment(1, 2, 3, 4, payload=payload)
    return EthernetFrame(0x0A, 0x0B, ETHERTYPE_IPV4, segment)


def ack_frame():
    segment = TcpSegment(1, 2, 3, 4, payload=b"")
    return EthernetFrame(0x0A, 0x0B, ETHERTYPE_IPV4, segment)


class TestPeriodicDataDropper:
    def test_counts_only_data_frames(self):
        dropper = PeriodicDataDropper(every=2)
        decisions = [
            dropper(data_frame(), 0),
            dropper(ack_frame(), 1),  # ignored: no payload
            dropper(data_frame(), 2),
            dropper(data_frame(), 3),
        ]
        assert decisions == [False, False, True, False]
        assert dropper.dropped == 1

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicDataDropper(0)


class TestDecreaseCounting:
    def test_counts_sharp_drops(self):
        values = [100, 110, 50, 55, 60, 25, 30]
        assert count_multiplicative_decreases(values) == 2

    def test_ignores_gentle_declines(self):
        values = [100, 95, 90, 85, 80]
        assert count_multiplicative_decreases(values) == 0

    def test_empty(self):
        assert count_multiplicative_decreases([]) == 0


class TestCompareTraces:
    def synthetic(self, scale=1.0, phase=0.0):
        times = [i * 0.01 for i in range(100)]
        values = [
            int(scale * (1000 + 500 * ((t + phase) % 0.2 < 0.1))) for t in times
        ]
        return CwndTrace(times, values)

    @pytest.fixture(autouse=True)
    def grid(self, monkeypatch):
        monkeypatch.setattr(cwnd, "SAMPLES", 40)
        monkeypatch.setattr(cwnd, "SKIP_S", 0.0)

    def test_identical_traces(self):
        a = self.synthetic()
        comparison = compare_traces(a, self.synthetic())
        assert comparison.correlation == pytest.approx(1.0)
        assert comparison.median_relative_error == pytest.approx(0.0)
        assert comparison.mean_cwnd_ratio == pytest.approx(1.0)
        assert comparison.engine_decreases == comparison.reference_decreases

    def test_scaled_trace_detected(self):
        comparison = compare_traces(self.synthetic(scale=2.0), self.synthetic())
        assert comparison.mean_cwnd_ratio == pytest.approx(2.0, rel=0.05)

    def test_phase_shift_hurts_correlation_not_distribution(self):
        comparison = compare_traces(self.synthetic(phase=0.1), self.synthetic())
        assert comparison.mean_cwnd_ratio == pytest.approx(1.0, rel=0.1)
        assert comparison.correlation < 0.5  # anti-phase


class TestReportEntryPoint:
    def test_exhibit_order_matches_registry(self):
        from repro.analysis.experiments import ALL_EXPERIMENTS

        assert set(EXHIBIT_ORDER) == set(ALL_EXPERIMENTS)

    def test_run_selected_exhibits(self):
        results = run_all(["table1", "figure7"], quick=True)
        assert set(results) == {"table1", "figure7"}
        assert all(result.all_checks_pass() for result in results.values())
