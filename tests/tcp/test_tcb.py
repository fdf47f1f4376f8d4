"""TCB derived quantities and the check-logic predicate."""

from repro.tcp.seq import SEQ_MOD
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import DEFAULT_MSS, TCB_SIZE_BYTES, Tcb

from .._records import make_tcb


def established_tcb(**overrides):
    tcb = make_tcb(flow_id=1, state=TcpState.ESTABLISHED)
    for name, value in overrides.items():
        setattr(tcb, name, value)
    return tcb


class TestDerivedPointers:
    def test_bytes_unsent(self):
        tcb = established_tcb(req=1500, snd_nxt=1000)
        assert tcb.bytes_unsent == 500

    def test_bytes_unsent_never_negative(self):
        tcb = established_tcb(req=1000, snd_nxt=1001)  # SYN consumed a seq
        assert tcb.bytes_unsent == 0

    def test_bytes_in_flight(self):
        tcb = established_tcb(snd_una=100, snd_nxt=600)
        assert tcb.bytes_in_flight == 500

    def test_pointers_across_wrap(self):
        tcb = established_tcb(
            snd_una=SEQ_MOD - 100, snd_nxt=50, req=150
        )
        assert tcb.bytes_in_flight == 150
        assert tcb.bytes_unsent == 100

    def test_rcv_wnd_shrinks_with_undelivered_data(self):
        tcb = established_tcb(rcv_nxt=5000, rcv_user=1000, rcv_buf=10_000)
        assert tcb.rcv_wnd == 6000

    def test_effective_window_is_min_of_cwnd_and_peer(self):
        tcb = established_tcb(cwnd=5000, snd_wnd=3000, snd_una=0, snd_nxt=1000)
        assert tcb.effective_window == 2000
        tcb.cwnd = 2500
        assert tcb.effective_window == 1500

    def test_effective_window_never_negative(self):
        tcb = established_tcb(cwnd=1000, snd_wnd=1000, snd_una=0, snd_nxt=5000)
        assert tcb.effective_window == 0


class TestCheckLogicPredicate:
    """can_send_now() is the memory manager's check logic (§4.3.1)."""

    def test_idle_flow_cannot_send(self):
        assert not established_tcb().can_send_now()

    def test_unsent_data_in_window(self):
        tcb = established_tcb(req=100, snd_nxt=0, cwnd=1000, snd_wnd=1000)
        assert tcb.can_send_now()

    def test_window_blocked_data_cannot_send(self):
        tcb = established_tcb(
            req=5000, snd_nxt=4000, snd_una=0, cwnd=4000, snd_wnd=4000
        )
        assert not tcb.can_send_now()

    def test_zero_window_probe_counts_as_sendable(self):
        tcb = established_tcb(req=100, snd_nxt=0, snd_wnd=0)
        assert tcb.can_send_now()

    def test_pending_ack(self):
        tcb = established_tcb(ack_pending=True)
        assert tcb.can_send_now()

    def test_pending_timeout(self):
        tcb = established_tcb(timeout_pending=True)
        assert tcb.can_send_now()

    def test_triple_dupack(self):
        tcb = established_tcb(dupacks=3)
        assert tcb.can_send_now()

    def test_pending_fin(self):
        tcb = established_tcb(close_requested=True)
        assert tcb.can_send_now()
        tcb.fin_sent = True
        assert not tcb.can_send_now()


class TestClone:
    def test_clone_is_independent(self):
        tcb = established_tcb(req=100)
        tcb.cc["w_max"] = 5.0
        copy = tcb.clone()
        copy.req = 999
        copy.cc["w_max"] = 77.0
        assert tcb.req == 100
        assert tcb.cc["w_max"] == 5.0

    def test_clone_preserves_everything(self):
        tcb = established_tcb(req=42, cwnd=1234, srtt=10**10)
        copy = tcb.clone()
        assert copy.req == 42
        assert copy.cwnd == 1234
        assert copy.srtt == 10**10
        assert copy.state is TcpState.ESTABLISHED


class TestConstants:
    def test_paper_evaluation_defaults(self):
        """MSS 1460 and 512 KB buffers per §5; TCB ~128 B."""
        tcb = Tcb(flow_id=0)
        assert tcb.mss == DEFAULT_MSS == 1460
        assert tcb.rcv_buf == 512 * 1024
        assert TCB_SIZE_BYTES == 128
