"""Engine tracing through the obs TraceBus: completeness and transparency."""

import pytest

from repro.engine.testbed import Testbed
from repro.obs.export import render_flow_timeline, to_chrome_trace
from repro.obs.hooks import attach_engine
from repro.obs.trace import TraceBus


@pytest.fixture
def traced_world():
    testbed = Testbed()
    bus = TraceBus(layers=["engine"])
    attach_engine(testbed.engine_a, bus)
    return testbed, bus


class TestTracing:
    def test_traffic_behaves_identically_under_tracing(self, traced_world):
        testbed, _ = traced_world
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"z" * 10_000)
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 10_000,
            max_time_s=0.05,
        )
        assert testbed.engine_b.recv_data(b_flow, 10_000) == b"z" * 10_000

    def test_records_every_layer(self, traced_world):
        testbed, bus = traced_world
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"z" * 5000)
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 5000,
            max_time_s=0.05,
        )
        testbed.run(max_time_s=testbed.now_s + 1e-4)  # let ACKs return
        assert bus.count("event") >= 2  # connect + send at least
        assert bus.count("fpu") >= 2
        assert bus.count("tx") >= 4  # SYN + data segments
        assert bus.count("rx") >= 2  # SYN-ACK + ACKs

    def test_state_transitions_recorded(self, traced_world):
        testbed, bus = traced_world
        a_flow, _ = testbed.establish()
        transitions = [
            str(event.detail)
            for event in bus.events_for_flow(a_flow)
            if event.kind == "state"
        ]
        assert any("SYN_SENT" in t for t in transitions)
        assert any("ESTABLISHED" in t for t in transitions)

    def test_render_filters_by_kind(self, traced_world):
        testbed, bus = traced_world
        a_flow, _ = testbed.establish()
        tx_events = [event for event in bus.events if event.kind == "tx"]
        tx_only = render_flow_timeline(to_chrome_trace(tx_events), a_flow)
        assert "tx" in tx_only.split()
        assert "event" not in tx_only.split()  # kind column filtered

    def test_bounded_buffer(self):
        testbed = Testbed()
        bus = TraceBus(layers=["engine"], max_events=5)
        attach_engine(testbed.engine_a, bus)
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"x" * 50_000)
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 50_000,
            max_time_s=0.05,
        )
        assert len(bus) == 5
        assert bus.dropped > 0

    def test_detach_restores_behaviour(self, traced_world):
        testbed, bus = traced_world
        testbed.establish()
        count = len(bus)
        attach_engine(testbed.engine_a, None)
        testbed.engine_a.connect(testbed.engine_b.ip, 80)
        testbed.run(max_time_s=testbed.now_s + 1e-4)
        assert len(bus) == count
