"""RFC 793 connection state transitions."""

from repro.tcp.state_machine import (
    DATA_STATES,
    TcpState,
    on_ack_of_fin,
    on_ack_of_syn,
    on_close,
    on_fin_received,
    on_rst,
    on_syn_ack_received,
    on_syn_received,
)


class TestOpening:
    def test_three_way_handshake_server_side(self):
        state = on_syn_received(TcpState.LISTEN)
        assert state is TcpState.SYN_RECEIVED
        state = on_ack_of_syn(state)
        assert state is TcpState.ESTABLISHED

    def test_three_way_handshake_client_side(self):
        state = on_syn_ack_received(TcpState.SYN_SENT)
        assert state is TcpState.ESTABLISHED

    def test_simultaneous_open(self):
        state = on_syn_received(TcpState.SYN_SENT)  # peer's SYN crosses ours
        assert state is TcpState.SYN_RECEIVED
        assert on_ack_of_syn(state) is TcpState.ESTABLISHED

    def test_duplicate_syn_in_established_is_ignored(self):
        assert on_syn_received(TcpState.ESTABLISHED) is TcpState.ESTABLISHED


class TestClosing:
    def test_active_close_sequence(self):
        state = on_close(TcpState.ESTABLISHED)
        assert state is TcpState.FIN_WAIT_1
        state = on_ack_of_fin(state)
        assert state is TcpState.FIN_WAIT_2
        state = on_fin_received(state)
        assert state is TcpState.TIME_WAIT

    def test_passive_close_sequence(self):
        state = on_fin_received(TcpState.ESTABLISHED)
        assert state is TcpState.CLOSE_WAIT
        state = on_close(state)
        assert state is TcpState.LAST_ACK
        assert on_ack_of_fin(state) is TcpState.CLOSED

    def test_simultaneous_close(self):
        state = on_close(TcpState.ESTABLISHED)
        state = on_fin_received(state)  # peer's FIN crosses ours
        assert state is TcpState.CLOSING
        assert on_ack_of_fin(state) is TcpState.TIME_WAIT

    def test_close_before_established(self):
        assert on_close(TcpState.SYN_SENT) is TcpState.CLOSED
        assert on_close(TcpState.LISTEN) is TcpState.CLOSED


class TestAbort:
    def test_rst_closes_from_anywhere(self):
        for state in TcpState:
            assert on_rst(state) is TcpState.CLOSED


class TestStateSets:
    def test_data_states(self):
        assert TcpState.ESTABLISHED in DATA_STATES
        assert TcpState.CLOSE_WAIT in DATA_STATES  # may still send
        assert TcpState.LISTEN not in DATA_STATES
        assert TcpState.TIME_WAIT not in DATA_STATES
