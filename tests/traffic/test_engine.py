"""The load engine end-to-end on the functional testbed."""

import pytest

from repro.traffic import (
    PER_REQUEST,
    Fixed,
    LoadEngine,
    Poisson,
    Scenario,
    TrafficClass,
    get_scenario,
    run_scenario,
)


class TestMixedScenario:
    """The acceptance scenario: Poisson RPC + Zipf bulk + flash crowd."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(get_scenario("mixed"), audit=True)

    def test_finishes_and_clean(self, result):
        assert result.finished
        assert result.clean
        assert result.frames_dropped == 0

    def test_every_class_reports_offered_achieved_and_percentiles(self, result):
        assert set(result.classes) == {"rpc", "bulk", "flash"}
        for metrics in result.classes.values():
            assert metrics.offered > 0
            assert metrics.completed == metrics.offered
            assert metrics.offered_rps > 0
            assert metrics.achieved_rps > 0
            assert 0 < metrics.p50_s <= metrics.p99_s

    def test_rpc_latency_spans_a_round_trip(self, result):
        # 2 us propagation each way plus serialization: ~4.3 us RTT.
        assert result.classes["rpc"].p50_s == pytest.approx(4.3e-6, rel=0.2)

    def test_csv_and_table_render(self, result):
        csv = result.to_csv()
        assert csv.count("\n") == 4  # header + one row per class
        assert "rpc" in result.table()

    def test_flash_class_carries_the_ramp(self, result):
        flash = result.classes["flash"]
        # Mean rate over the run exceeds the 40k base: the ramp added load.
        assert flash.offered_rps > 45e3


class TestLifecycles:
    def test_one_way_streams_complete_server_side(self):
        scenario = Scenario(
            name="stream",
            classes=[
                TrafficClass(
                    name="s",
                    request=Fixed(2048),
                    response=Fixed(0),
                    connections=2,
                    rounds=4,
                )
            ],
        )
        result = run_scenario(scenario)
        assert result.finished
        metrics = result.classes["s"]
        assert metrics.completed == 8
        assert metrics.bytes_delivered == 8 * 2048

    def test_open_loop_per_request_churn(self):
        scenario = Scenario(
            name="open-churn",
            duration_s=10e-3,
            classes=[
                TrafficClass(
                    name="churn",
                    arrival=Poisson(rate=300.0),
                    request=Fixed(64),
                    response=Fixed(64),
                    lifecycle=PER_REQUEST,
                    connections=4,
                )
            ],
        )
        result = run_scenario(scenario)
        assert result.finished
        metrics = result.classes["churn"]
        assert metrics.completed == metrics.offered > 0
        assert metrics.connections_opened == metrics.offered
        assert metrics.connections_closed == metrics.offered
        # Lifecycle includes TIME_WAIT lingering (~2 RTOs).
        assert metrics.lifecycle.median >= 5e-3

    def test_impaired_scenario_drops_frames_and_recovers(self):
        result = run_scenario(get_scenario("lossy-mixed"), audit=True)
        assert result.finished
        assert result.frames_dropped > 0
        assert result.completed == result.offered
        assert result.clean

    @pytest.mark.parametrize("seed", [9, 21, 24, 51])
    def test_pools_establish_when_the_wire_loses_a_syn_ack(self, seed):
        """These four seeds drop a pool connection's SYN-ACK; the
        handshake must recover through the client's SYN retransmit
        (1 s RTO, hence the long setup bound) instead of wedging."""
        engine = LoadEngine(get_scenario("lossy-mixed", seed), audit=True)
        result = engine.run(setup_time_s=5.0)
        assert result.finished
        assert result.completed == result.offered > 0
        assert result.clean

