"""TX/RX data paths: packet generator and RX parser (§4.1.2)."""

import pytest

from repro.engine.buffers import SendStream
from repro.engine.fpu import TxDirective
from repro.engine.packet_gen import PacketGenerator
from repro.engine.rx_parser import RxParser
from repro.tcp.options import TcpOptions
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FlowKey,
    TcpSegment,
)
from repro.tcp.seq import seq_add

KEY = FlowKey(0x0A000001, 40000, 0x0A000002, 80)


def make_generator(stream=None):
    streams = {1: stream} if stream is not None else {}
    return PacketGenerator(
        key_of_flow=lambda fid: KEY if fid == 1 else None,
        stream_of_flow=lambda fid: streams.get(fid),
    )


def directive(seq=0, length=0, flags=FLAG_ACK, ack=500, window=1000, **kw):
    return TxDirective(
        flow_id=1, seq=seq, length=length, flags=flags, ack=ack, window=window, **kw
    )


class TestPacketGenerator:
    def test_pure_ack(self):
        gen = make_generator()
        segments = gen.generate(directive(seq=100), mss=1460)
        assert len(segments) == 1
        assert segments[0].seq == 100
        assert segments[0].ack == 500
        assert segments[0].payload == b""
        assert segments[0].flow_key == KEY

    def test_payload_fetched_from_stream(self):
        stream = SendStream(base_seq=1000, capacity=10_000)
        stream.append(b"abcdefgh")
        gen = make_generator(stream)
        segments = gen.generate(
            directive(seq=1002, length=4, flags=FLAG_ACK | FLAG_PSH), mss=1460
        )
        assert segments[0].payload == b"cdef"

    def test_mss_splitting(self):
        """Requests above the MSS split into multiple segments (§4.1.2)."""
        stream = SendStream(base_seq=0, capacity=100_000)
        stream.append(bytes(5000))
        gen = make_generator(stream)
        segments = gen.generate(
            directive(seq=0, length=5000, flags=FLAG_ACK | FLAG_PSH), mss=1460
        )
        assert [len(s.payload) for s in segments] == [1460, 1460, 1460, 620]
        assert [s.seq for s in segments] == [0, 1460, 2920, 4380]
        # PSH only on the final segment of the request.
        assert all(not (s.flags & FLAG_PSH) for s in segments[:-1])
        assert segments[-1].flags & FLAG_PSH
        assert gen.splits == 3

    def test_unknown_flow_produces_nothing(self):
        gen = make_generator()
        bad = TxDirective(flow_id=9, seq=0, length=0, flags=FLAG_ACK, ack=0, window=0)
        assert gen.generate(bad, mss=1460) == []

    def test_segments_without_options_share_one_unwritten_record(self):
        stream = SendStream(base_seq=0, capacity=100_000)
        stream.append(bytes(3000))
        gen = make_generator(stream)
        segments = gen.generate(
            directive(seq=0, length=3000, flags=FLAG_ACK | FLAG_PSH), mss=1460
        )
        segments += gen.generate(directive(seq=3000), mss=1460)
        assert len({id(s.options) for s in segments}) == 1
        # A SACK-bearing directive gets options of its own.
        sacked = gen.generate(directive(seq=3000), mss=1460, sack_blocks=[(5, 9)])
        assert sacked[0].options is not segments[0].options
        assert sacked[0].options.sack_blocks == [(5, 9)]
        assert segments[0].options == TcpOptions()

    def test_options_attached(self):
        gen = make_generator()
        d = directive(flags=FLAG_SYN, options=TcpOptions(mss=1200))
        segments = gen.generate(d, mss=1460)
        assert segments[0].options.mss == 1200

    def test_statistics(self):
        stream = SendStream(base_seq=0, capacity=10_000)
        stream.append(bytes(3000))
        gen = make_generator(stream)
        gen.generate(directive(length=3000, flags=FLAG_ACK | FLAG_PSH), mss=1460)
        assert gen.packets_generated == 3
        assert gen.bytes_generated == 3000


def make_parser(listening=False):
    created = {}

    def passive_open(segment):
        if not listening:
            return None
        flow_id = 100 + len(created)
        key = segment.flow_key.reversed()
        parser.register_flow(key, flow_id, rcv_nxt=0)
        created[flow_id] = key
        return flow_id

    parser = RxParser(passive_open=passive_open)
    return parser, created


def incoming(seq=0, ack=0, flags=FLAG_ACK, payload=b"", window=9000):
    """A segment as sent by the peer (so dst is our local address)."""
    return TcpSegment(
        src_ip=KEY.dst_ip, dst_ip=KEY.src_ip,
        src_port=KEY.dst_port, dst_port=KEY.src_port,
        seq=seq, ack=ack, flags=flags, payload=payload, window=window,
    )


class TestRxParserLookup:
    def test_known_flow_resolved(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        event = parser.parse(incoming(ack=123), 0)
        assert event is not None and event.flow_id == 7

    def test_unknown_flow_dropped(self):
        parser, _ = make_parser()
        assert parser.parse(incoming(ack=1), 0) is None
        assert parser.packets_dropped_no_flow == 1

    def test_passive_open_on_syn(self):
        parser, created = make_parser(listening=True)
        event = parser.parse(incoming(seq=555, flags=FLAG_SYN, ack=0), 0)
        assert event is not None
        assert event.syn and event.irs == 555
        assert len(created) == 1

    def test_non_syn_does_not_create_flows(self):
        parser, created = make_parser(listening=True)
        assert parser.parse(incoming(ack=5), 0) is None
        assert not created


class TestRxParserDataPath:
    def test_in_order_payload_produces_notification(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        parser.set_initial_rcv_nxt(7, 100)
        event = parser.parse(incoming(seq=100, payload=b"hello"), 0)
        assert event.rcv_nxt == 105
        assert event.ack_needed
        notes = parser.drain_notifications()
        assert notes and notes[0].readable_pointer == 105
        assert parser.rx_states[7].reassembly.read(5) == b"hello"

    def test_out_of_order_flagged_not_coalescible(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        parser.set_initial_rcv_nxt(7, 100)
        event = parser.parse(incoming(seq=200, payload=b"late"), 0)
        assert not event.coalescible
        assert event.ack_needed  # duplicate ACK must go out
        assert parser.out_of_order_packets == 1

    def test_reassembly_across_packets(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        parser.set_initial_rcv_nxt(7, 0)
        parser.parse(incoming(seq=5, payload=b"world"), 0)
        event = parser.parse(incoming(seq=0, payload=b"hello"), 0)
        assert event.rcv_nxt == 10
        assert parser.rx_states[7].reassembly.read(10) == b"helloworld"


class TestDupAckDetection:
    def setup_flow(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        return parser

    def test_repeat_ack_counts_as_duplicate(self):
        parser = self.setup_flow()
        parser.parse(incoming(ack=100), 0)
        event = parser.parse(incoming(ack=100), 0)
        assert event.dup_incr == 1
        assert parser.dup_acks_detected == 1

    def test_advancing_ack_is_not_duplicate(self):
        parser = self.setup_flow()
        parser.parse(incoming(ack=100), 0)
        event = parser.parse(incoming(ack=200), 0)
        assert event.dup_incr == 0
        assert event.ack == 200

    def test_window_update_is_not_duplicate(self):
        parser = self.setup_flow()
        parser.parse(incoming(ack=100, window=1000), 0)
        event = parser.parse(incoming(ack=100, window=5000), 0)
        assert event.dup_incr == 0

    def test_data_bearing_repeat_is_not_duplicate(self):
        parser = self.setup_flow()
        parser.set_initial_rcv_nxt(7, 0)
        parser.parse(incoming(ack=100), 0)
        event = parser.parse(incoming(ack=100, seq=0, payload=b"x"), 0)
        assert event.dup_incr == 0


class TestFinAndRst:
    def setup_flow(self):
        parser, _ = make_parser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        parser.set_initial_rcv_nxt(7, 100)
        return parser

    def test_in_order_fin(self):
        parser = self.setup_flow()
        event = parser.parse(incoming(seq=100, flags=FLAG_ACK | FLAG_FIN), 0)
        assert event.fin
        assert event.rcv_nxt == 101  # FIN consumes one sequence number
        assert any(n.eof for n in parser.drain_notifications())

    def test_fin_after_payload_in_same_segment(self):
        parser = self.setup_flow()
        event = parser.parse(
            incoming(seq=100, payload=b"bye", flags=FLAG_ACK | FLAG_FIN), 0
        )
        assert event.fin
        assert event.rcv_nxt == 104

    def test_out_of_order_fin_waits_for_data(self):
        parser = self.setup_flow()
        first = parser.parse(incoming(seq=105, flags=FLAG_ACK | FLAG_FIN), 0)
        assert not first.fin  # hole at 100..105 not yet filled
        second = parser.parse(incoming(seq=100, payload=b"hello"), 0)
        assert second.fin
        assert second.rcv_nxt == 106

    def test_retransmitted_fin_reacked(self):
        parser = self.setup_flow()
        parser.parse(incoming(seq=100, flags=FLAG_ACK | FLAG_FIN), 0)
        again = parser.parse(incoming(seq=100, flags=FLAG_ACK | FLAG_FIN), 0)
        assert again.ack_needed
        assert not again.fin  # EOF reported once

    def test_rst(self):
        parser = self.setup_flow()
        event = parser.parse(incoming(flags=FLAG_RST), 0)
        assert event.rst
        assert not event.coalescible

    def test_deregister(self):
        parser = self.setup_flow()
        parser.deregister_flow(KEY, 7)
        assert parser.parse(incoming(ack=1), 0) is None
