"""Fault injection: corruption, unreachable peers, stale flows, lost handshakes."""

import pytest

from repro.engine.fpu import MAX_RTO_BACKOFF
from repro.engine.testbed import Testbed
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.tcp.segment import FLAG_ACK, FLAG_SYN, TcpSegment
from repro.tcp.seq import seq_add
from repro.tcp.state_machine import TcpState


class TestWireCorruption:
    def test_corrupted_frames_dropped_not_crashed(self):
        """Bit-flipped wire bytes fail the checksum and are discarded."""
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        original_send = testbed.wire.port_a.send
        corrupted = {"count": 0}

        def corrupting_send(frame, now_ps):
            if isinstance(frame.payload, TcpSegment) and frame.payload.payload:
                raw = bytearray(frame.payload.to_bytes())
                if corrupted["count"] < 3:  # flip bits in the first few
                    raw[-1] ^= 0xFF
                    corrupted["count"] += 1
                frame.payload = bytes(raw)
            original_send(frame, now_ps)

        testbed.wire.port_a.send = corrupting_send
        data = bytes(i % 256 for i in range(50_000))
        sent = {"n": 0}

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(a_flow, data[sent["n"]:sent["n"] + 8192])
            return testbed.engine_b.readable(b_flow) >= len(data)

        assert testbed.run(until=pump, max_time_s=5.0)
        assert testbed.engine_b.recv_data(b_flow, len(data)) == data
        assert testbed.engine_b.counters["packets_corrupt_dropped"] == 3
        # Retransmissions repaired the corrupted segments.
        assert testbed.engine_a.counters["retransmissions"] >= 1


class TestRetryGiveUp:
    def test_unreachable_peer_eventually_resets(self):
        """After MAX_RTO_BACKOFF consecutive timeouts the flow aborts
        with a RESET instead of retrying forever."""
        testbed = Testbed()
        testbed.wire.port_a.send = lambda frame, now_ps: None  # blackhole
        flow = testbed.engine_a.connect(testbed.engine_b.ip, 9999)
        messages = []

        def reset_seen():
            messages.extend(testbed.engine_a.drain_host_messages())
            return any(m.kind == "reset" for m in messages)

        # Backoff doubles from 1 s: the abort arrives within ~2^11 s.
        assert testbed.run(until=reset_seen, max_time_s=4000.0)
        assert flow not in testbed.engine_a.flows  # torn down
        assert testbed.engine_a.tcb_of(flow) is None

    def test_backoff_cap_constant(self):
        assert MAX_RTO_BACKOFF == 10


class TestRstGeneration:
    def test_data_to_vanished_flow_draws_rst(self):
        """Segments for a flow the engine no longer knows are answered
        with RST (RFC 793), resetting the stale peer."""
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        # A's flow disappears (e.g. operator teardown) without a FIN.
        testbed.engine_a._teardown_flow(a_flow)
        testbed.engine_b.send_data(b_flow, b"into the void")
        messages = []

        def reset_seen():
            messages.extend(testbed.engine_b.drain_host_messages())
            return any(m.kind == "reset" for m in messages)

        assert testbed.run(until=reset_seen, max_time_s=0.01)
        assert testbed.engine_a.counters["rsts_sent"] >= 1
        assert b_flow not in testbed.engine_b.flows

    def test_rst_is_never_answered_with_rst(self):
        """No RST ping-pong between two engines with stale state."""
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        testbed.engine_a._teardown_flow(a_flow)
        testbed.engine_b._teardown_flow(b_flow)
        # A stray RST arrives for an unknown flow on both sides.
        from repro.tcp.segment import FLAG_RST, TcpSegment

        stray = TcpSegment(
            src_ip=testbed.engine_a.ip, dst_ip=testbed.engine_b.ip,
            src_port=12345, dst_port=54321, seq=1, flags=FLAG_RST,
        )
        testbed.engine_a._transmit_ip(stray, testbed.engine_b.ip)
        testbed.run(max_time_s=testbed.now_s + 1e-4)
        assert testbed.engine_b.counters["rsts_sent"] == 0


def _drop(port, should_drop):
    """Lose every TCP segment ``should_drop`` picks, on one wire port.

    ARP frames always pass.  Returns the list the lost segments land in.
    """
    original_send = port.send
    lost = []

    def lossy_send(frame, now_ps):
        segment = frame.payload
        if isinstance(segment, TcpSegment) and should_drop(segment):
            lost.append(segment)
            return
        original_send(frame, now_ps)

    port.send = lossy_send
    return lost


class TestHandshakeUnderLoss:
    def test_lost_syn_ack_handshake_completes(self):
        """The first SYN-ACK is lost, so the client's RTO resends its
        SYN to a SYN_RECEIVED server: the server must answer SYN|ACK
        again (a bare ACK would tell the client nothing about ``irs``)."""
        testbed = Testbed()
        lost = _drop(
            testbed.wire.port_b,
            lambda segment: segment.syn and segment.has_ack and not lost,
        )
        a_flow, b_flow = testbed.establish()
        assert len(lost) == 1
        client = testbed.engine_a.tcb_of(a_flow)
        server = testbed.engine_b.tcb_of(b_flow)
        assert client.rcv_nxt == seq_add(server.iss, 1)
        assert server.state is TcpState.ESTABLISHED
        assert "accepted" in [
            message.kind for message in testbed.engine_b.drain_host_messages()
        ]
        # The connection carries data both ways afterwards.
        testbed.engine_a.send_data(a_flow, b"ping")
        testbed.engine_b.send_data(b_flow, b"pong")
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 4
            and testbed.engine_a.readable(a_flow) >= 4,
            max_time_s=testbed.now_s + 0.01,
        )

    def test_lost_third_ack_handshake_completes(self):
        """The client's first pure ACK — the handshake's third segment —
        is lost: the server stays SYN_RECEIVED until its SYN-ACK
        retransmission draws the ACK again, then data flows both ways."""
        testbed = Testbed()
        lost = _drop(
            testbed.wire.port_a,
            lambda segment: segment.has_ack and not segment.syn
            and not segment.payload and not lost,
        )
        testbed.engine_b.listen(80)
        a_flow = testbed.engine_a.connect(testbed.engine_b.ip, 80)
        assert testbed.run(until=lambda: bool(lost), max_time_s=0.01)
        (b_flow,) = testbed.engine_b.flows
        assert testbed.engine_b.flow_state(b_flow) is TcpState.SYN_RECEIVED
        assert testbed.run(
            until=lambda: testbed.engine_b.flow_state(b_flow)
            is TcpState.ESTABLISHED,
            max_time_s=testbed.now_s + 5.0,
        )
        assert len(lost) == 1
        testbed.engine_a.send_data(a_flow, b"ping")
        testbed.engine_b.send_data(b_flow, b"pong")
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 4
            and testbed.engine_a.readable(a_flow) >= 4,
            max_time_s=testbed.now_s + 0.01,
        )
        assert testbed.engine_b.recv_data(b_flow, 4) == b"ping"
        assert testbed.engine_a.recv_data(a_flow, 4) == b"pong"

    def test_syn_sent_ignores_ack_without_syn(self):
        """RFC 793: in SYN-SENT a segment that ACKs our SYN but carries
        no SYN is dropped — the peer's sequence space is still unknown,
        so completing the handshake on it would ACK ``0`` forever."""
        testbed = Testbed()
        _drop(testbed.wire.port_a, lambda segment: segment.syn)
        a_flow = testbed.engine_a.connect(testbed.engine_b.ip, 80)
        testbed.run(max_time_s=1e-4)  # the SYN leaves (and is lost)
        client = testbed.engine_a.tcb_of(a_flow)
        assert client.state is TcpState.SYN_SENT
        bare_ack = TcpSegment(
            src_ip=testbed.engine_b.ip, dst_ip=testbed.engine_a.ip,
            src_port=80, dst_port=client.key.src_port,
            seq=7000, ack=seq_add(client.iss, 1), flags=FLAG_ACK,
        )
        testbed.engine_b._transmit_ip(bare_ack, testbed.engine_a.ip)
        testbed.run(max_time_s=testbed.now_s + 1e-4)
        client = testbed.engine_a.tcb_of(a_flow)
        assert client.state is TcpState.SYN_SENT
        assert client.snd_una == client.iss
        assert "connected" not in [
            message.kind for message in testbed.engine_a.drain_host_messages()
        ]

    def test_dupacks_in_syn_received_do_not_fast_retransmit(self):
        """Three duplicate ACKs at a SYN_RECEIVED flow: the only thing
        in flight is the SYN-ACK, which has no byte in the send stream —
        fast retransmit must leave it to the RTO instead of asking the
        packet generator for the SYN's sequence number."""
        testbed = Testbed()
        engine_a, engine_b = testbed.engine_a, testbed.engine_b
        engine_b.listen(80)
        # B's SYN-ACK never arrives, so A never answers it.
        _drop(testbed.wire.port_b, lambda segment: segment.syn)

        def from_a(**fields):
            segment = TcpSegment(
                src_ip=engine_a.ip, dst_ip=engine_b.ip,
                src_port=40000, dst_port=80, **fields,
            )
            engine_a._transmit_ip(segment, engine_b.ip)
            testbed.run(max_time_s=testbed.now_s + 1e-4)

        from_a(seq=100, flags=FLAG_SYN)
        (b_flow,) = engine_b.flows
        assert engine_b.flow_state(b_flow) is TcpState.SYN_RECEIVED
        for _ in range(4):  # the first sets the reference, three dups follow
            from_a(seq=101, ack=0, flags=FLAG_ACK)
        assert engine_b.rx_parser.dup_acks_detected == 3
        assert engine_b.flow_state(b_flow) is TcpState.SYN_RECEIVED
        assert engine_b.counters["retransmissions"] == 0
