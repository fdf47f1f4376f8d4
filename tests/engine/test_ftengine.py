"""FtEngine end-to-end behaviour on the two-engine testbed."""

import pytest

from repro.engine import ftengine
from repro.engine.ftengine import ENGINE_FREQ_HZ, FtEngine, FtEngineConfig
from repro.engine.testbed import Testbed
from repro.engine.icmp import IcmpMessage, IcmpType
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.tcp.state_machine import TcpState


@pytest.fixture
def testbed():
    return Testbed()


class TestConfig:
    def test_reference_design(self):
        config = FtEngineConfig()
        assert config.num_fpcs == 8
        assert config.fpc_slots == 128
        assert config.sram_flow_capacity == 1024  # §4.4.2
        assert ENGINE_FREQ_HZ == 250e6  # §4.1


class TestHandshake:
    def test_three_way_handshake(self, testbed):
        a_flow, b_flow = testbed.establish()
        assert testbed.engine_a.flow_state(a_flow) is TcpState.ESTABLISHED
        assert testbed.engine_b.flow_state(b_flow) is TcpState.ESTABLISHED

    def test_connect_to_closed_port_is_refused(self, testbed):
        """Nobody listens on 9999: the peer answers the SYN with RST
        (RFC 793) and the connection aborts immediately."""
        flow = testbed.engine_a.connect(testbed.engine_b.ip, 9999)
        messages = []

        def refused():
            messages.extend(testbed.engine_a.drain_host_messages())
            return any(m.kind == "reset" for m in messages)

        assert testbed.run(until=refused, max_time_s=0.01)
        assert testbed.engine_b.counters.get("rsts_sent") == 1
        assert flow not in testbed.engine_a.flows  # torn down

    def test_unreachable_peer_retries_with_backoff(self, testbed):
        """A blackholed SYN (peer never sees it) is retransmitted."""
        testbed.wire.port_a.send = lambda frame, now_ps: None  # blackhole
        flow = testbed.engine_a.connect(testbed.engine_b.ip, 80)
        assert testbed.run(
            until=lambda: testbed.engine_a.counters.get("retransmissions") >= 2,
            max_time_s=8.0,
        )
        assert testbed.engine_a.flow_state(flow) is TcpState.SYN_SENT
        assert testbed.engine_a.tcb_of(flow).rto_backoff >= 2

    def test_multiple_concurrent_connections(self, testbed):
        testbed.engine_b.listen(80)
        flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(10)]
        accepted = []

        def done():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                accepted.append(flow)
            return len(accepted) == 10

        assert testbed.run(until=done, max_time_s=0.1)
        for flow in flows:
            assert testbed.engine_a.flow_state(flow) is TcpState.ESTABLISHED

    def test_connect_then_accept_pairs_the_two_ends(self, testbed):
        """The host calls alone: listen, connect, accept.  The flow
        accepted on B is the far end of the flow A opened."""
        testbed.engine_b.listen(80)
        a_flow = testbed.engine_a.connect(testbed.engine_b.ip, 80)
        accepted = []

        def done():
            if not accepted:
                flow = testbed.engine_b.accept(80)
                if flow is not None:
                    accepted.append(flow)
            return bool(accepted) and (
                testbed.engine_a.flow_state(a_flow) is TcpState.ESTABLISHED
            )

        assert testbed.run(until=done, max_time_s=0.01)
        (b_flow,) = accepted
        assert testbed.engine_b.flow_state(b_flow) is TcpState.ESTABLISHED
        a_key = testbed.engine_a.flows[a_flow].key
        b_key = testbed.engine_b.flows[b_flow].key
        assert (a_key.src_ip, a_key.src_port) == (b_key.dst_ip, b_key.dst_port)
        assert (a_key.dst_ip, a_key.dst_port) == (b_key.src_ip, b_key.src_port)
        assert testbed.engine_b.flows[b_flow].listen_port == 80
        assert testbed.engine_b.accept(80) is None  # one connect, one accept

    def test_accept_is_none_on_an_empty_listening_port(self, testbed):
        testbed.engine_b.listen(81)
        assert testbed.engine_b.accept(81) is None

    def test_accept_is_none_on_an_unlistened_port(self, testbed):
        assert testbed.engine_b.accept(82) is None
        testbed.engine_b.listen(81)
        assert testbed.engine_b.accept(82) is None  # another port listens

    def test_arp_resolution_precedes_syn(self, testbed):
        testbed.engine_b.listen(80)
        testbed.engine_a.connect(testbed.engine_b.ip, 80)
        testbed.run(until=lambda: testbed.engine_a.arp.resolve(testbed.engine_b.ip) is not None,
                    max_time_s=0.01)
        assert testbed.engine_a.arp.requests_sent == 1
        assert testbed.engine_b.arp.replies_sent == 1


class TestDataExchange:
    def test_bidirectional_transfer(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"from-a" * 100)
        testbed.engine_b.send_data(b_flow, b"from-b" * 200)
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 600
            and testbed.engine_a.readable(a_flow) >= 1200,
            max_time_s=0.05,
        )
        assert testbed.engine_b.recv_data(b_flow, 600) == b"from-a" * 100
        assert testbed.engine_a.recv_data(a_flow, 1200) == b"from-b" * 200

    def test_send_respects_buffer_room(self, testbed):
        a_flow, _ = testbed.establish()
        big = bytes(2 * 1024 * 1024)  # 2 MB into a 512 KB buffer
        accepted = testbed.engine_a.send_data(a_flow, big)
        assert accepted == 512 * 1024

    def test_send_to_a_full_buffer_takes_nothing(self, testbed):
        """What a non-blocking send meets: a full buffer accepts nothing
        until ACKs free room."""
        a_flow, _ = testbed.establish()
        assert testbed.engine_a.send_data(a_flow, bytes(600_000)) == 512 * 1024
        assert testbed.engine_a.send_room(a_flow) == 0
        assert testbed.engine_a.send_data(a_flow, b"more") == 0

    def test_send_then_recv_one_message(self, testbed):
        a_flow, b_flow = testbed.establish()
        assert testbed.engine_a.send_data(a_flow, b"hello over f4t") == 14
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 14, max_time_s=0.05
        )
        assert testbed.engine_b.recv_data(b_flow, 100) == b"hello over f4t"
        assert testbed.engine_b.readable(b_flow) == 0

    def test_echo_ping_then_pong(self, testbed):
        """One side answers only after it has read: the reply rides the
        same flow back."""
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"ping")
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 4, max_time_s=0.05
        )
        assert testbed.engine_b.recv_data(b_flow, 4) == b"ping"
        testbed.engine_b.send_data(b_flow, b"pong")
        assert testbed.run(
            until=lambda: testbed.engine_a.readable(a_flow) >= 4, max_time_s=0.05
        )
        assert testbed.engine_a.recv_data(a_flow, 4) == b"pong"

    def test_recv_with_nothing_readable_is_empty(self, testbed):
        _, b_flow = testbed.establish()
        assert testbed.engine_b.readable(b_flow) == 0
        assert testbed.engine_b.recv_data(b_flow, 10) == b""

    def test_transfer_larger_than_both_buffers(self, testbed):
        """900 KB through 512 KB send and receive buffers: the sender
        writes what room there is, the reader drains as bytes arrive."""
        a_flow, b_flow = testbed.establish()
        engine_a, engine_b = testbed.engine_a, testbed.engine_b
        data = bytes(x % 256 for x in range(900_000))
        sent = 0
        received = bytearray()

        def pump():
            nonlocal sent
            room = engine_a.send_room(a_flow)
            if room and sent < len(data):
                sent += engine_a.send_data(a_flow, data[sent:sent + room])
            readable = engine_b.readable(b_flow)
            if readable:
                received.extend(engine_b.recv_data(b_flow, readable))
            return len(received) == len(data)

        assert testbed.run(until=pump, max_time_s=1.0)
        assert bytes(received) == data

    def test_host_messages_flow(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.drain_host_messages()
        testbed.engine_b.drain_host_messages()
        testbed.engine_a.send_data(a_flow, b"x" * 100)
        testbed.run(until=lambda: testbed.engine_b.readable(b_flow) >= 100,
                    max_time_s=0.05)
        kinds_b = {m.kind for m in testbed.engine_b.drain_host_messages()}
        assert "data" in kinds_b
        testbed.run(max_time_s=testbed.now_s + 0.001)
        kinds_a = {m.kind for m in testbed.engine_a.drain_host_messages()}
        assert "acked" in kinds_a

    def test_counters(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, bytes(10_000))
        testbed.run(until=lambda: testbed.engine_b.readable(b_flow) >= 10_000,
                    max_time_s=0.05)
        assert testbed.engine_a.counters.get("packets_sent") >= 7  # ceil(10000/1460)
        assert testbed.engine_b.counters.get("packets_received") >= 7


class TestTeardown:
    def test_one_sided_close(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.close_flow(a_flow)

        saw_eof = []

        def server():
            for message in testbed.engine_b.drain_host_messages():
                if message.kind == "eof" and not saw_eof:
                    saw_eof.append(True)
                    testbed.engine_b.close_flow(b_flow)
            return not testbed.engine_a.flows and not testbed.engine_b.flows

        assert testbed.run(until=server, max_time_s=10.0)

    def test_recv_after_the_peer_closed_is_eof(self, testbed):
        """The peer's last bytes are read first, then b"" for good."""
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, b"bye")
        testbed.engine_a.close_flow(a_flow)
        kinds = []

        def eof():
            kinds.extend(
                m.kind for m in testbed.engine_b.drain_host_messages()
                if m.flow_id == b_flow
            )
            return "eof" in kinds

        assert testbed.run(until=eof, max_time_s=0.05)
        assert testbed.engine_b.recv_data(b_flow, 10) == b"bye"
        assert testbed.engine_b.recv_data(b_flow, 10) == b""
        assert testbed.engine_b.readable(b_flow) == 0

    def test_simultaneous_close(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.close_flow(a_flow)
        testbed.engine_b.close_flow(b_flow)
        assert testbed.run(
            until=lambda: not testbed.engine_a.flows and not testbed.engine_b.flows,
            max_time_s=10.0,
        )

    def test_flows_can_be_reopened_after_close(self, testbed):
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.close_flow(a_flow)
        testbed.engine_b.close_flow(b_flow)
        testbed.run(
            until=lambda: not testbed.engine_a.flows and not testbed.engine_b.flows,
            max_time_s=10.0,
        )
        a2, b2 = testbed.establish()
        testbed.engine_a.send_data(a2, b"again")
        assert testbed.run(
            until=lambda: testbed.engine_b.readable(b2) >= 5, max_time_s=0.05
        )


class TestEphemeralPorts:
    """Active opens draw source ports from 40000 up, inside 1024-65535."""

    PEER = 0x0A000002

    def _ports(self, engine, flows):
        return [engine.flows[flow].key.src_port for flow in flows]

    def test_the_25537th_active_open_wraps_instead_of_leaving_the_range(self):
        # No wire: the SYNs go nowhere, the flows stay held open.
        engine = FtEngine(ip=0x0A000001)
        flows = [engine.connect(self.PEER, 80) for _ in range(25_540)]
        ports = self._ports(engine, flows)
        # The first 25,536 are the ports the unbounded counter gave.
        assert ports[:25_536] == list(range(40_000, 65_536))
        assert ports[25_536:] == [1024, 1025, 1026, 1027]
        assert len({engine.flows[flow].key for flow in flows}) == len(flows)

    def test_a_port_held_by_a_live_flow_is_skipped(self):
        engine = FtEngine(ip=0x0A000001)
        held = engine.connect(self.PEER, 80, src_port=40_001)
        flows = [engine.connect(self.PEER, 80) for _ in range(3)]
        assert self._ports(engine, flows) == [40_000, 40_002, 40_003]
        # Only the same 4-tuple collides: another destination is free.
        other = engine.connect(self.PEER, 443)
        assert self._ports(engine, [held, other]) == [40_001, 40_004]

    def test_exhaustion_names_the_engine_and_the_destination(self, monkeypatch):
        monkeypatch.setattr(ftengine, "_PORT_MIN", 40_000)
        monkeypatch.setattr(ftengine, "_PORT_MAX", 40_003)
        monkeypatch.setattr(ftengine, "_PORT_COUNT", 4)
        engine = FtEngine(ip=0x0A000001)
        for _ in range(4):
            engine.connect(self.PEER, 80)
        with pytest.raises(OSError, match=rf"engine {engine.name}.*10\.0\.0\.2:80"):
            engine.connect(self.PEER, 80)
        # A closed flow gives its port back.
        engine._teardown_flow(1)
        assert self._ports(engine, [engine.connect(self.PEER, 80)]) == [40_001]


class TestIcmpPing:
    def test_ping_through_the_wire(self, testbed):
        # Prime ARP via a connection, then ping B from A.
        testbed.establish()
        a, b = testbed.engine_a, testbed.engine_b
        ping = IcmpMessage(
            IcmpType.ECHO_REQUEST, src_ip=a.ip, dst_ip=b.ip,
            identifier=1, sequence=1, payload=b"diagnostic",
        )
        a._transmit_ip(ping, b.ip)
        assert testbed.run(
            until=lambda: a.icmp.replies_received == 1, max_time_s=0.01
        )
        assert b.icmp.requests_answered == 1
