"""Workload models and functional application drivers."""

import pytest

from repro.apps.echo import EchoModel, measure_dram_swap_rate
from repro.apps.iperf import BulkTransferModel, run_functional_bulk
from repro.apps.nginx import (
    HTTP_RESPONSE,
    NginxPerformanceModel,
    RESPONSE_BYTES,
    http_get,
    simulate_closed_loop,
)
from repro.apps.roundrobin import RoundRobinModel, round_robin_scenario
from repro.apps.wrk import run_functional_wrk
from repro.traffic import Fixed, Scenario, TrafficClass, run_scenario


def echo_scenario(flows, rounds, payload_bytes=128):
    """Closed-loop 128 B ping-pong over persistent connections."""
    return Scenario(
        name="echo",
        description="closed-loop ping-pong over persistent connections",
        server_port=7,
        classes=[
            TrafficClass(
                name="echo",
                request=Fixed(payload_bytes),
                response=Fixed(payload_bytes),
                connections=flows,
                rounds=rounds,
            )
        ],
    )


class TestBulkModel:
    def test_fig8_single_core_anchor(self):
        point = BulkTransferModel(cores=1).request_rate(128)
        assert point.goodput_gbps == pytest.approx(45, rel=0.05)
        assert point.bottleneck == "software"

    def test_two_cores_near_saturation(self):
        point = BulkTransferModel(cores=2).request_rate(128)
        assert point.goodput_gbps == pytest.approx(88, rel=0.1)

    def test_small_requests_pcie_bound(self):
        point = BulkTransferModel(cores=16).request_rate(16)
        assert point.bottleneck == "pcie"
        assert point.requests_per_s / 1e6 == pytest.approx(396, rel=0.05)

    def test_small_requests_reach_high_goodput_via_accumulation(self):
        """64 B requests exceed the 64 B-packet line rate because they
        merge into MSS-sized packets (§5.1)."""
        point = BulkTransferModel(cores=8).request_rate(64)
        per_packet_limit = 100e9 * 64 / (64 + 78) / 8 / 64  # 64 B packets
        assert point.requests_per_s > per_packet_limit

class TestRoundRobinModel:
    def test_fig8b_anchors(self):
        assert RoundRobinModel(cores=1).request_rate(128).goodput_gbps == pytest.approx(35, rel=0.05)
        assert RoundRobinModel(cores=8).request_rate(128).goodput_gbps == pytest.approx(90, rel=0.05)

    def test_rr_slower_than_bulk_per_core(self):
        bulk = BulkTransferModel(cores=1).request_rate(128)
        rr = RoundRobinModel(cores=1).request_rate(128)
        assert rr.requests_per_s < bulk.requests_per_s


class TestEchoModel:
    def test_sram_region_flat(self):
        model = EchoModel(memory="ddr4")
        assert model.rate(256) == model.rate(1024)

    def test_ddr4_throttles_hbm_does_not(self):
        ddr = EchoModel(memory="ddr4")
        hbm = EchoModel(memory="hbm")
        assert ddr.rate(65536) < 0.5 * ddr.rate(1024)
        assert hbm.rate(65536) == pytest.approx(hbm.rate(1024), rel=0.05)

    def test_swap_rate_scales_with_bandwidth(self):
        assert measure_dram_swap_rate("hbm", flows=2048, transactions=500) > \
            5 * measure_dram_swap_rate("ddr4", flows=2048, transactions=500)


class TestNginxModel:
    def test_headline_ratios(self):
        model = NginxPerformanceModel()
        assert model.speedup() == pytest.approx(2.8, abs=0.05)
        assert model.cpu_savings_fraction() == pytest.approx(0.64, abs=0.02)

    def test_breakdowns_sum_to_one(self):
        model = NginxPerformanceModel()
        for stack in ("linux", "f4t"):
            fractions = model.cycle_breakdown(stack).fractions()
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_f4t_has_no_tcp_cycles(self):
        model = NginxPerformanceModel()
        assert model.cycle_breakdown("f4t").fraction("tcp_stack") == 0.0

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError):
            NginxPerformanceModel().cycle_breakdown("windows")
        with pytest.raises(ValueError):
            NginxPerformanceModel().request_rate("windows")

    def test_response_is_256B(self):
        assert len(HTTP_RESPONSE) == RESPONSE_BYTES == 256

    def test_http_get_is_wellformed(self):
        assert http_get().endswith(b"\r\n\r\n")


class TestClosedLoopSimulation:
    def test_deterministic_for_fixed_seed(self):
        r1, h1 = simulate_closed_loop("f4t", flows=16, requests=2000, seed=5)
        r2, h2 = simulate_closed_loop("f4t", flows=16, requests=2000, seed=5)
        assert r1 == r2
        assert h1.median == h2.median

    def test_f4t_latency_below_linux(self):
        _, linux = simulate_closed_loop("linux", flows=32, requests=5000)
        _, f4t = simulate_closed_loop("f4t", flows=32, requests=5000)
        assert f4t.median < linux.median
        assert f4t.p99 < linux.p99

    def test_linux_tail_is_heavy(self):
        _, linux = simulate_closed_loop("linux", flows=64, requests=20_000)
        assert linux.p99 > 3 * linux.median

    def test_more_cores_more_throughput_at_saturation(self):
        r1, _ = simulate_closed_loop("linux", flows=256, cores=1, think_s=0.28e-3, requests=10_000)
        r2, _ = simulate_closed_loop("linux", flows=256, cores=2, think_s=0.28e-3, requests=10_000)
        assert r2 > 1.6 * r1


class TestFunctionalDrivers:
    def test_functional_bulk(self):
        result = run_functional_bulk(total_bytes=200_000)
        assert result.bytes_delivered == 200_000
        assert result.goodput_gbps > 10  # the simulated 100G link delivers

    def test_functional_round_robin(self):
        result = run_scenario(
            round_robin_scenario(4, 8, 128), raise_on_incomplete=True
        )
        assert result.classes["rr"].bytes_delivered == 4 * 8 * 128

    def test_functional_echo(self):
        result = run_scenario(echo_scenario(3, 4), raise_on_incomplete=True)
        assert result.classes["echo"].achieved_rps > 0

    def test_functional_wrk_serves_http(self):
        result = run_functional_wrk(connections=3, requests_per_connection=3)
        assert result.requests_completed == 9
        assert result.latencies.median > 0


class TestConnectionChurn:
    def test_transactions_complete_and_flows_recycle(self):
        from repro.apps.shortconn import churn_preset
        from repro.engine.testbed import Testbed
        from repro.traffic import LoadEngine

        testbed = Testbed()
        result = LoadEngine(churn_preset(8, 3), testbed=testbed).run(
            run_time_s=30.0, raise_on_incomplete=True
        )
        assert result.classes["churn"].completed == 8
        # Everything torn down: no leaked flows, CAM slots or RX state.
        assert not testbed.engine_a.flows
        assert not testbed.engine_b.flows
        assert testbed.engine_a.counters.get("flows_closed") == 8
        assert testbed.engine_b.counters.get("flows_closed") == 8
        assert len(testbed.engine_a.rx_parser.rx_states) == 0

    def test_lifecycle_includes_time_wait(self):
        from repro.apps.shortconn import run_connection_churn

        result = run_connection_churn(connections=3, concurrency=1)
        # The active closer lingers in TIME_WAIT (~2 RTOs >= 10 ms).
        assert result.lifecycle_latencies.median >= 5e-3

    def test_churn_under_loss(self):
        from repro.apps.shortconn import churn_preset
        from repro.engine.testbed import Testbed
        from repro.net.wire import LossPattern, Wire
        from repro.traffic import LoadEngine

        wire = Wire(drop_a_to_b=LossPattern.probability(0.02, seed=17))
        testbed = Testbed(wire=wire)
        result = LoadEngine(churn_preset(6, 2), testbed=testbed).run(
            run_time_s=120.0, raise_on_incomplete=True
        )
        assert result.classes["churn"].completed == 6
        assert not testbed.engine_a.flows
