"""ARP resolution and ICMP echo (§4.1.2)."""

from repro.engine.arp import ArpMessage, ArpModule, ArpOp
from repro.engine.icmp import IcmpMessage, IcmpModule, IcmpType
from repro.net.ethernet import BROADCAST_MAC, ETHERTYPE_ARP


class TestArp:
    def test_unresolved_ip_broadcasts_request(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        frame = arp.queue_until_resolved(2, packet="pkt")
        assert frame is not None
        assert frame.dst_mac == BROADCAST_MAC
        assert frame.ethertype == ETHERTYPE_ARP
        assert frame.payload.op is ArpOp.REQUEST
        assert frame.payload.target_ip == 2

    def test_second_request_for_same_ip_suppressed(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        assert arp.queue_until_resolved(2, "p1") is not None
        assert arp.queue_until_resolved(2, "p2") is None
        assert arp.requests_sent == 1

    def test_reply_releases_queued_packets(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        arp.queue_until_resolved(2, "p1")
        arp.queue_until_resolved(2, "p2")
        reply = ArpMessage(ArpOp.REPLY, sender_mac=0x0B, sender_ip=2,
                           target_mac=0x02, target_ip=1)
        _, released = arp.handle(reply)
        assert released == [(0x0B, "p1"), (0x0B, "p2")]
        assert arp.resolve(2) == 0x0B

    def test_request_for_us_gets_a_reply(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        request = ArpMessage(ArpOp.REQUEST, sender_mac=0x0B, sender_ip=2,
                             target_mac=0, target_ip=1)
        reply_frame, _ = arp.handle(request)
        assert reply_frame is not None
        assert reply_frame.payload.op is ArpOp.REPLY
        assert reply_frame.payload.sender_mac == 0x02
        assert reply_frame.dst_mac == 0x0B

    def test_request_for_other_host_ignored(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        request = ArpMessage(ArpOp.REQUEST, 0x0B, 2, 0, 99)
        reply, _ = arp.handle(request)
        assert reply is None
        # But the sender's mapping was still learned (RFC 826 merge).
        assert arp.resolve(2) == 0x0B

    def test_pending_queue_bounded(self):
        arp = ArpModule(my_mac=0x02, my_ip=1)
        for i in range(100):
            arp.queue_until_resolved(2, f"p{i}")
        reply = ArpMessage(ArpOp.REPLY, 0x0B, 2, 0x02, 1)
        _, released = arp.handle(reply)
        assert len(released) == ArpModule.MAX_PENDING_PER_IP
        assert arp.pending_dropped == 100 - ArpModule.MAX_PENDING_PER_IP

    def test_parked_packets_past_the_cap_are_counted_drops(self):
        """``rr_spill``'s build: 256 connects leave engine A before ARP
        resolves, so 192 SYNs find the pending store full and go out only
        on their initial 1 s RTO — every timeout and retransmission of
        the run."""
        engine_a, engine_b, resent_syns = _spill_build()
        report_a, report_b = engine_a.stats_report(), engine_b.stats_report()
        dropped = 256 - ArpModule.MAX_PENDING_PER_IP
        assert report_a["arp"]["pending_dropped"] == dropped == 192
        assert report_b["arp"]["pending_dropped"] == 0
        assert report_a["engine"]["timeouts_fired"] == dropped
        assert report_a["engine"]["retransmissions"] == dropped
        assert report_b["engine"].get("timeouts_fired", 0) == 0
        assert resent_syns == dropped


def _spill_build():
    """Run the 256-flow round-robin spill (64 TCB slots per engine) and
    count the SYNs engine A sends from its first RTO on."""
    from repro.apps.roundrobin import round_robin_scenario
    from repro.engine.ftengine import FtEngineConfig
    from repro.engine.testbed import Testbed
    from repro.tcp.segment import TcpSegment
    from repro.tcp.tcb import INITIAL_RTO_PS
    from repro.traffic import LoadEngine

    config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
    load = LoadEngine(
        round_robin_scenario(256, 2, 128),
        testbed=Testbed(config_a=config, config_b=config),
    )
    engine_a = load.testbed.engine_a
    port = engine_a.port
    send = port.send
    resent = []

    def counted_send(frame, now_ps):
        segment = frame.payload
        if type(segment) is TcpSegment and segment.syn and now_ps >= INITIAL_RTO_PS:
            resent.append(segment)
        send(frame, now_ps)

    port.send = counted_send
    load.run(setup_time_s=5.0, run_time_s=2.0)
    return engine_a, load.testbed.engine_b, len(resent)


class TestIcmp:
    def test_echo_request_answered(self):
        icmp = IcmpModule(my_ip=1)
        reply = icmp.handle(
            IcmpMessage(IcmpType.ECHO_REQUEST, src_ip=2, dst_ip=1,
                        identifier=7, sequence=3, payload=b"ping")
        )
        assert reply is not None
        assert reply.icmp_type is IcmpType.ECHO_REPLY
        assert reply.dst_ip == 2
        assert reply.payload == b"ping"
        assert reply.identifier == 7 and reply.sequence == 3
        assert icmp.requests_answered == 1

    def test_request_for_other_host_ignored(self):
        icmp = IcmpModule(my_ip=1)
        assert icmp.handle(IcmpMessage(IcmpType.ECHO_REQUEST, 2, 99)) is None

    def test_reply_recorded(self):
        icmp = IcmpModule(my_ip=1)
        assert icmp.handle(IcmpMessage(IcmpType.ECHO_REPLY, 2, 1)) is None
        assert icmp.replies_received == 1
