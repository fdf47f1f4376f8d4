"""TcpEvent construction and the information-preserving coalesce rule."""

from repro.engine.events import (
    EventKind,
    TcpEvent,
    timeout_event,
    user_recv_event,
    user_send_event,
)


class TestConstructors:
    def test_send_event_carries_pointer_not_length(self):
        """§4.2.1: the library sends the pointer itself (e.g. 1300)."""
        event = user_send_event(5, 1300, now_ps=10**12)
        assert event.kind is EventKind.USER_REQ
        assert event.req == 1300

    def test_recv_event(self):
        event = user_recv_event(5, 900, now_ps=10**12)
        assert event.rcv_user == 900

    def test_timeout_event(self):
        event = timeout_event(3, now_ps=2 * 10**12)
        assert event.kind is EventKind.TIMEOUT
        assert event.timeout


class TestCoalescing:
    """§4.4.1: coalesce only if no information is lost."""

    def test_user_requests_always_coalesce(self):
        first = user_send_event(1, 1000, 0)
        later = user_send_event(1, 1300, 100 * 10**9)
        assert first.information_preserving_merge(later)
        assert first.req == 1300  # overwritten with the newer pointer

    def test_pointer_merge_keeps_later_value_even_if_out_of_order(self):
        first = user_send_event(1, 1300, 0)
        later = user_send_event(1, 1000, 100 * 10**9)
        assert first.information_preserving_merge(later)
        assert first.req == 1300  # cumulative pointers never regress

    def test_different_flows_never_coalesce(self):
        first = user_send_event(1, 100, 0)
        later = user_send_event(2, 200, 100 * 10**9)
        assert not first.information_preserving_merge(later)

    def test_duplicate_acks_never_coalesce(self):
        """Counts cannot be overwritten — they are the one RMW."""
        first = TcpEvent(EventKind.RX_PACKET, 1, ack=100)
        dup = TcpEvent(EventKind.RX_PACKET, 1, dup_incr=1, coalescible=False)
        assert not first.information_preserving_merge(dup)

    def test_non_coalescible_rx_refused(self):
        """Out-of-order packets are flagged by the parser (GRO rule)."""
        first = TcpEvent(EventKind.RX_PACKET, 1, ack=100)
        ooo = TcpEvent(EventKind.RX_PACKET, 1, ack=100, coalescible=False)
        assert not first.information_preserving_merge(ooo)

    def test_in_order_rx_packets_coalesce(self):
        first = TcpEvent(EventKind.RX_PACKET, 1, ack=100, wnd=5000, rcv_nxt=50)
        later = TcpEvent(EventKind.RX_PACKET, 1, ack=300, wnd=4000, rcv_nxt=90)
        assert first.information_preserving_merge(later)
        assert first.ack == 300
        assert first.wnd == 4000  # last window is the up-to-date one
        assert first.rcv_nxt == 90

    def test_occurrence_flags_accumulate_by_or(self):
        first = TcpEvent(EventKind.RX_PACKET, 1, ack=100)
        fin = TcpEvent(EventKind.RX_PACKET, 1, ack=100, fin=True, coalescible=True)
        assert first.information_preserving_merge(fin)
        assert first.fin

    def test_timeout_flag_merges(self):
        first = user_send_event(1, 100, 0)
        later = timeout_event(1, 500 * 10**9)
        assert first.information_preserving_merge(later)
        assert first.timeout
        assert first.req == 100

    def test_timestamp_keeps_latest(self):
        first = user_send_event(1, 100, 10**12)
        later = user_send_event(1, 200, 2 * 10**12)
        first.information_preserving_merge(later)
        assert first.timestamp == 2 * 10**12

    def test_merged_event_equivalent_to_sequence(self):
        """Coalescing N send requests == one request for the total."""
        events = [user_send_event(1, 100 * (i + 1), float(i)) for i in range(8)]
        base = events[0]
        for event in events[1:]:
            assert base.information_preserving_merge(event)
        assert base.req == 800
