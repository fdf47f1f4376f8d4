"""RFC 7323 window scaling: 512 KB buffers over a 16-bit window field."""

import pytest

from repro.engine.buffers import SendStream
from repro.engine.fpu import TxDirective
from repro.engine.packet_gen import PacketGenerator
from repro.engine.rx_parser import RxParser
from repro.engine.testbed import Testbed
from repro.tcp.options import TcpOptions, WINDOW_SCALE
from repro.tcp.segment import FLAG_ACK, FLAG_SYN, FlowKey, TcpSegment

KEY = FlowKey(0x0A000001, 40000, 0x0A000002, 80)


class TestGeneratorScaling:
    def make_gen(self):
        return PacketGenerator(
            key_of_flow=lambda fid: KEY, stream_of_flow=lambda fid: None
        )

    def test_data_segment_window_scaled_down(self):
        gen = self.make_gen()
        directive = TxDirective(1, 0, 0, FLAG_ACK, ack=0, window=512 * 1024)
        segment = gen.generate(directive, mss=1460)[0]
        assert segment.window == (512 * 1024) >> WINDOW_SCALE == 4096

    def test_syn_window_unscaled(self):
        gen = self.make_gen()
        directive = TxDirective(
            1, 0, 0, FLAG_SYN, ack=0, window=500_000,
            options=TcpOptions(mss=1460, window_scale=WINDOW_SCALE),
        )
        segment = gen.generate(directive, mss=1460)[0]
        assert segment.window == 0xFFFF  # clamped, never scaled on SYN

    def test_wire_window_fits_16_bits(self):
        gen = self.make_gen()
        directive = TxDirective(1, 0, 0, FLAG_ACK, ack=0, window=100 * 1024 * 1024)
        segment = gen.generate(directive, mss=1460)[0]
        assert segment.window <= 0xFFFF


class TestParserDescaling:
    def make_parser(self):
        parser = RxParser()
        parser.register_flow(KEY, 7, rcv_nxt=0)
        return parser

    def incoming(self, **kw):
        defaults = dict(
            src_ip=KEY.dst_ip, dst_ip=KEY.src_ip,
            src_port=KEY.dst_port, dst_port=KEY.src_port,
        )
        defaults.update(kw)
        return TcpSegment(**defaults)

    def test_descaling_after_syn_negotiation(self):
        parser = self.make_parser()
        parser.parse(
            self.incoming(
                flags=FLAG_SYN, seq=100,
                options=TcpOptions(mss=1460, window_scale=WINDOW_SCALE),
            ),
            0,
        )
        event = parser.parse(self.incoming(flags=FLAG_ACK, ack=5, window=4096), 0)
        assert event.wnd == 4096 << WINDOW_SCALE == 512 * 1024

    def test_no_negotiation_means_no_scaling(self):
        parser = self.make_parser()
        event = parser.parse(self.incoming(flags=FLAG_ACK, ack=5, window=4096), 0)
        assert event.wnd == 4096

    def test_syn_window_taken_verbatim(self):
        parser = self.make_parser()
        event = parser.parse(
            self.incoming(
                flags=FLAG_SYN, seq=0, window=9000,
                options=TcpOptions(window_scale=WINDOW_SCALE),
            ),
            0,
        )
        assert event.wnd == 9000


class TestEndToEndOverWireBytes:
    def test_full_window_usable_through_byte_serialization(self):
        """With scaling, the 512 KB window survives the 16-bit field:
        a byte-exact wire moves >64 KB without per-window stalls."""
        testbed = Testbed()
        original_send = testbed.wire.port_a.send

        def byte_exact(frame, now_ps):
            if isinstance(frame.payload, TcpSegment):
                frame.payload = frame.payload.to_bytes()
            original_send(frame, now_ps)

        testbed.wire.port_a.send = byte_exact
        # And the reverse direction too (ACK windows matter most).
        original_send_b = testbed.wire.port_b.send

        def byte_exact_b(frame, now_ps):
            if isinstance(frame.payload, TcpSegment):
                frame.payload = frame.payload.to_bytes()
            original_send_b(frame, now_ps)

        testbed.wire.port_b.send = byte_exact_b

        a_flow, b_flow = testbed.establish()
        start = testbed.now_s
        data = bytes(i % 251 for i in range(400_000))
        sent = {"n": 0}

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(
                    a_flow, data[sent["n"] : sent["n"] + 16384]
                )
            return testbed.engine_b.readable(b_flow) >= len(data)

        assert testbed.run(until=pump, max_time_s=1.0)
        assert testbed.engine_b.recv_data(b_flow, len(data)) == data
        # Sender saw a de-scaled window far above 64 KB.
        elapsed = testbed.now_s - start
        goodput_gbps = len(data) * 8 / elapsed / 1e9
        assert goodput_gbps > 20  # no 64 KB-window throttling
