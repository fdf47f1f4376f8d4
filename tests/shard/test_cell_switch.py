"""CellSwitch: the statically partitioned switch slice one cell owns.

Sender-side uplink timing is computed at send time (so the switch
arrival instant crosses cell boundaries as data, not as simulation),
and receiver-side egress contention is resolved at admission with lazy
depth retirement.  These tests check the slice against the physics the
full :class:`~repro.fabric.switch.SwitchFabric` models: serialization,
propagation, FIFO egress queueing and per-port static buffer limits.
"""

from repro.fabric.softstack import PER_PACKET_OVERHEAD, FabricPacket
from repro.fabric.switch import CellSwitch
from repro.tcp.segment import FlowKey


class _SmallSwitch(CellSwitch):
    buffer_bytes = 64 * 1024


def _switch() -> CellSwitch:
    return _SmallSwitch([0, 1], num_hosts=4)


def _packet(switch: CellSwitch, src: int, dst: int, payload: int = 0):
    key = FlowKey(
        src_ip=switch.host_ip(src), src_port=1,
        dst_ip=switch.host_ip(dst), dst_port=2,
    )
    return FabricPacket("data", key, payload_bytes=payload)


class TestConfigGuards:
    def test_port_limit_is_the_static_slice(self):
        switch = _switch()
        assert switch.port_limit == 64 * 1024 // 4

    def test_ip_mapping_round_trips(self):
        switch = _switch()
        assert switch.host_of_ip(switch.host_ip(3)) == 3
        assert switch.host_of_ip(switch.host_ip(0) - 1) is None
        assert switch.host_of_ip(switch.host_ip(4)) is None


class TestSenderSide:
    def test_uplink_serializes_back_to_back_sends(self):
        switch = _switch()
        p = _packet(switch, 0, 1, payload=1000)
        ser = switch.serialization_ps(p.wire_bytes)
        first, seq1 = switch.send_from(0, p, 0)
        second, seq2 = switch.send_from(0, _packet(switch, 0, 1, 1000), 0)
        assert first == ser + switch.prop_ps
        assert second == 2 * ser + switch.prop_ps
        assert (seq1, seq2) == (1, 2)

    def test_idle_uplink_starts_at_send_instant(self):
        switch = _switch()
        arrival, _ = switch.send_from(0, _packet(switch, 0, 1), 5_000_000)
        expected = (
            5_000_000
            + switch.serialization_ps(PER_PACKET_OVERHEAD)
            + switch.prop_ps
        )
        assert arrival == expected

    def test_uplinks_are_independent_per_host(self):
        switch = _switch()
        a, _ = switch.send_from(0, _packet(switch, 0, 1, 1000), 0)
        b, _ = switch.send_from(1, _packet(switch, 1, 0, 1000), 0)
        assert a == b  # no shared serializer between hosts


class TestReceiverSide:
    def test_admission_queues_then_delivers_in_order(self):
        switch = _switch()
        first = _packet(switch, 1, 0, payload=500)
        second = _packet(switch, 1, 0, payload=500)
        switch.admit(first, 1, 1000)
        switch.admit(second, 1, 1000)
        t1 = switch.next_any_delivery_ps()
        assert switch.due_hosts(t1) == {0}
        assert switch.deliver_due(0, t1) == [first]
        t2 = switch.next_any_delivery_ps()
        ser = switch.serialization_ps(first.wire_bytes)
        assert t2 == t1 + ser  # FIFO egress: second serializes after first
        assert switch.deliver_due(0, t2) == [second]
        assert switch.forwarded == 2

    def test_port_limit_drops_and_lazy_retirement_frees(self, monkeypatch):
        # One 1000-byte packet of waiting room per port; the packet in
        # the egress serializer is retired from depth at service start.
        monkeypatch.setattr(_SmallSwitch, "buffer_bytes", 4 * (1000 + PER_PACKET_OVERHEAD))
        switch = _switch()
        assert switch.port_limit == 1000 + PER_PACKET_OVERHEAD
        switch.admit(_packet(switch, 1, 0, payload=1000), 1, 0)  # in service
        switch.admit(_packet(switch, 1, 0, payload=1000), 1, 0)  # waiting
        switch.admit(_packet(switch, 1, 0, payload=1000), 1, 0)  # overflow
        assert (switch.forwarded, switch.dropped) == (2, 1)
        # Once the first service completes the waiter starts serving,
        # freeing its slot for a later admission.
        later = switch.serialization_ps(1000 + PER_PACKET_OVERHEAD) + 1
        switch.admit(_packet(switch, 1, 0, payload=1000), 1, later)
        assert (switch.forwarded, switch.dropped) == (3, 1)

    def test_a_reply_goes_to_the_end_it_did_not_come_from(self):
        # Both directions carry the opener's key (src = host 0): the
        # listener's reply is routed by where it entered, not by dst.
        switch = _switch()
        reply = _packet(switch, 0, 1)
        switch.admit(reply, 1, 0)
        t = switch.next_any_delivery_ps()
        assert switch.due_hosts(t) == {0}
        assert switch.deliver_due(0, t) == [reply]

    def test_foreign_destination_is_dropped(self):
        switch = _switch()  # owns hosts 0 and 1 of 4
        switch.admit(_packet(switch, 0, 3), 0, 0)
        assert switch.dropped == 1
        assert switch.forwarded == 0


class TestShardPort:
    def test_send_routes_through_outbound_callback(self):
        switch = _switch()
        sent = []
        port = switch.port(0, lambda *args: sent.append(args))
        packet = _packet(switch, 0, 1, payload=64)
        port.send(packet, 0)
        ((arrival, src, seq, routed),) = sent
        assert routed is packet
        assert src == 0 and seq == 1
        assert arrival == (
            switch.serialization_ps(packet.wire_bytes) + switch.prop_ps
        )

    def test_poll_surfaces_admitted_packets(self):
        switch = _switch()
        port = switch.port(0, lambda *args: None)
        packet = _packet(switch, 1, 0)
        switch.admit(packet, 1, 0)
        assert port.pending == 1
        assert port.poll(switch.next_any_delivery_ps()) == [packet]
        assert port.pending == 0
