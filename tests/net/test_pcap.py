"""pcap capture: format correctness and wire-tap transparency."""

import struct

import pytest

from repro.engine.testbed import Testbed
from repro.net.pcap import LINKTYPE_RAW, PcapWriter, WireTap
from repro.tcp.segment import FLAG_ACK, TcpSegment


def sample_segment(payload=b"captured"):
    return TcpSegment(
        src_ip=0x0A000001, dst_ip=0x0A000002, src_port=40000, dst_port=80,
        seq=100, ack=200, flags=FLAG_ACK, payload=payload,
    )


class TestPcapFormat:
    def test_global_header(self):
        writer = PcapWriter()
        data = writer.to_bytes()
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "<IHHiIII", data[:24]
        )
        assert magic == 0xA1B2C3D4
        assert (major, minor) == (2, 4)
        assert linktype == LINKTYPE_RAW
        assert snaplen == 65535

    def test_record_layout(self):
        writer = PcapWriter()
        segment = sample_segment()
        writer.add_segment(segment, timestamp_s=1.5)
        data = writer.to_bytes()
        seconds, micros, caplen, origlen = struct.unpack("<IIII", data[24:40])
        assert (seconds, micros) == (1, 500_000)
        raw = data[40 : 40 + caplen]
        assert caplen == origlen == len(raw)
        # The record is a parseable IPv4/TCP packet.
        parsed = TcpSegment.from_bytes(raw)
        assert parsed.payload == b"captured"

    def test_save_roundtrip(self, tmp_path):
        writer = PcapWriter()
        writer.add_segment(sample_segment(), 0.001)
        writer.add_segment(sample_segment(b"two"), 0.002)
        path = tmp_path / "trace.pcap"
        assert writer.save(str(path)) == 2
        assert path.read_bytes()[:4] == b"\xd4\xc3\xb2\xa1"

    def test_add_raw_decodes_when_possible(self):
        writer = PcapWriter()
        writer.add_raw(sample_segment().to_bytes(), 0.0)
        writer.add_raw(b"\x00" * 40, 0.0)  # undecodable
        assert writer.packets[0].segment is not None
        assert writer.packets[1].segment is None

    def test_summary(self):
        writer = PcapWriter()
        writer.add_segment(sample_segment(), 12e-6)
        text = writer.summary()
        assert "seq=100" in text
        assert "ACK" in text
        assert "len=8" in text


class TestWireTap:
    def test_capture_is_transparent(self):
        """Traffic behaves identically with the tap installed."""
        testbed = Testbed()
        tap = WireTap.attach(testbed.wire.port_a)
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"x" * 5000)
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 5000,
            max_time_s=0.05,
        )
        assert testbed.engine_b.recv_data(b_flow, 5000) == b"x" * 5000
        # The SYN, the data segments and the final state are all there.
        flags = [p.segment.flag_names() for p in tap.writer.packets if p.segment]
        assert any("SYN" in f for f in flags)
        data_packets = [
            p for p in tap.writer.packets if p.segment and p.segment.payload
        ]
        assert len(data_packets) >= 4  # 5000 B / 1460 MSS

    def test_timestamps_increase(self):
        testbed = Testbed()
        tap = WireTap.attach(testbed.wire.port_a)
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"y" * 20_000)
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 20_000,
            max_time_s=0.05,
        )
        times = [p.timestamp_s for p in tap.writer.packets]
        assert times == sorted(times)
        assert times[-1] > 0

    def test_saved_capture_parses(self, tmp_path):
        testbed = Testbed()
        tap = WireTap.attach(testbed.wire.port_a)
        testbed.establish()
        path = tmp_path / "handshake.pcap"
        count = tap.save(str(path))
        assert count >= 2  # SYN + handshake ACK at least
        assert path.stat().st_size == 24 + sum(
            16 + len(p.data) for p in tap.writer.packets
        )
