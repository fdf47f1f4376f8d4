"""Link arithmetic, Ethernet framing and the fault-injecting wire."""

import pytest

from repro.net.ethernet import (
    BROADCAST_MAC,
    ETHERTYPE_IPV4,
    EthernetFrame,
    FRAME_OVERHEAD,
    make_mac,
)
from repro.net.link import LINK_100G, Link, PER_PACKET_OVERHEAD
from repro.net.wire import LossPattern, Wire
from repro.tcp.segment import TcpSegment


class TestLink:
    def test_paper_goodput_arithmetic(self):
        """§5.1: 128 B payloads cap goodput at 62.1 Gbps on 100 GbE."""
        assert LINK_100G.max_goodput_gbps(128) == pytest.approx(62.1, abs=0.1)

    def test_per_packet_overhead(self):
        assert PER_PACKET_OVERHEAD == 78
        assert LINK_100G.wire_bytes(128) == 206

    def test_packet_rate(self):
        rate = LINK_100G.max_packets_per_second(1460)
        assert rate == pytest.approx(100e9 / 8 / 1538, rel=1e-6)

    def test_serialization_time(self):
        link = Link()  # 100 Gbps
        assert link.serialization_time_ps(12_500) == 10**6  # 1 us, exactly

    def test_mss_goodput_near_capacity(self):
        assert LINK_100G.max_goodput_gbps(1460) == pytest.approx(94.9, abs=0.1)


class TestEthernet:
    def test_mac_generation_unique(self):
        assert make_mac(1) != make_mac(2)

    def test_frame_wire_bytes_from_tcp_segment(self):
        segment = TcpSegment(1, 2, 3, 4, payload=b"x" * 100)
        frame = EthernetFrame(0x02, 0x03, ETHERTYPE_IPV4, segment)
        assert frame.wire_bytes == segment.wire_length

    def test_frame_wire_bytes_minimum(self):
        frame = EthernetFrame(0x02, BROADCAST_MAC, 0x0806, b"tiny")
        assert frame.wire_bytes == FRAME_OVERHEAD + 46  # min payload pad


def frame(n=128):
    return EthernetFrame(1, 2, ETHERTYPE_IPV4, b"x" * n)


class TestWire:
    def test_delivery_after_serialization_and_propagation(self):
        wire = Wire(link=Link(propagation_delay_us=2))
        wire.port_a.send(frame(), now_ps=0)
        assert wire.port_b.poll(now_ps=10**6) == []  # 1 us: still in flight
        delivered = wire.port_b.poll(now_ps=3 * 10**6)
        assert len(delivered) == 1

    def test_serialization_backpressure(self):
        """Frames queue behind each other at the link rate."""
        wire = Wire(link=Link(propagation_delay_us=0))
        for _ in range(10):
            wire.port_a.send(frame(1000), now_ps=0)
        early = wire.port_b.poll(now_ps=90_000)  # 90 ns: ~83 ns per frame
        late = wire.port_b.poll(now_ps=10**9)
        assert 0 < len(early) < 10
        assert len(early) + len(late) == 10

    def test_directions_are_independent(self):
        wire = Wire()
        wire.port_a.send(frame(), 0)
        assert wire.port_a.poll(10**12) == []  # nothing comes back to A
        assert len(wire.port_b.poll(10**12)) == 1

    def test_in_flight_and_bytes_accounting(self):
        wire = Wire()
        wire.port_a.send(frame(100), 0)
        assert wire.in_flight == 1
        assert wire.bytes_sent == frame(100).wire_bytes
        wire.port_b.poll(10**12)
        assert wire.in_flight == 0


class TestLossPatterns:
    def test_none(self):
        # No loss pattern: nothing is dropped.
        wire = Wire()
        for _ in range(100):
            wire.port_a.send(frame(), 0)
        assert wire.frames_dropped == 0
        assert len(wire.port_b.poll(10**12)) == 100

    def test_probability_is_deterministic_per_seed(self):
        d1 = LossPattern.probability(0.3, seed=7)
        d2 = LossPattern.probability(0.3, seed=7)
        assert [d1(None, i) for i in range(50)] == [d2(None, i) for i in range(50)]

    def test_explicit(self):
        drop = LossPattern.explicit([2, 4])
        assert [i for i in range(6) if drop(None, i)] == [2, 4]

    def test_wire_counts_drops(self):
        wire = Wire(drop_a_to_b=LossPattern.explicit(range(0, 10, 2)))
        for _ in range(10):
            wire.port_a.send(frame(), 0)
        assert wire.frames_dropped == 5
        assert len(wire.port_b.poll(10**12)) == 5


class TestReordering:
    def test_delay_fn_reorders(self):
        tagged = [EthernetFrame(1, 2, ETHERTYPE_IPV4, bytes([i]) * 50) for i in range(4)]
        wire = Wire(
            link=Link(propagation_delay_us=1),
            delay_a_to_b=lambda f, i: 50_000_000 if i == 0 else 0,  # delay the first
        )
        for f in tagged:
            wire.port_a.send(f, 0)
        delivered = wire.port_b.poll(10**12)
        assert delivered[0].payload[0] != 0  # frame 0 no longer first
        assert delivered[-1].payload[0] == 0
