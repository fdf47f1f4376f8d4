"""The FPU's stateless TCP processing pass."""

import pytest

from repro.engine.fpu import Fpu, NoteKind, TimerOp
from repro.tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from repro.tcp.seq import seq_add, seq_lt
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb

from .._records import make_tcb

MSS = 1460


def established(iss=1000, irs=5000, **overrides):
    tcb = make_tcb(flow_id=1, state=TcpState.ESTABLISHED, iss=iss, irs=irs)
    tcb.snd_una = tcb.snd_nxt = tcb.req = seq_add(iss, 1)
    tcb.rcv_nxt = tcb.rcv_user = tcb.last_ack_sent = seq_add(irs, 1)
    tcb.cwnd = 10 * MSS
    tcb.snd_wnd = 64 * 1024
    for name, value in overrides.items():
        setattr(tcb, name, value)
    return tcb


class TestConnectionSetup:
    def test_active_open_emits_syn(self):
        fpu = Fpu()
        tcb = Tcb(flow_id=1, iss=100)
        tcb.cc["_connect_req"] = True
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.SYN_SENT
        assert len(result.directives) == 1
        syn = result.directives[0]
        assert syn.flags == FLAG_SYN
        assert syn.seq == 100
        assert syn.options.mss == tcb.mss
        assert tcb.snd_nxt == 101  # SYN consumes a sequence number
        assert result.timer is TimerOp.ARM

    def test_passive_open_emits_syn_ack(self):
        fpu = Fpu()
        tcb = make_tcb(flow_id=1, state=TcpState.CLOSED, iss=200)
        tcb.syn_received = True
        tcb.irs = 900
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.SYN_RECEIVED
        syn_ack = result.directives[0]
        assert syn_ack.flags == FLAG_SYN | FLAG_ACK
        assert syn_ack.ack == 901
        assert tcb.rcv_nxt == 901

    def test_syn_ack_completes_client_handshake(self):
        fpu = Fpu()
        tcb = make_tcb(flow_id=1, state=TcpState.SYN_SENT, iss=100)
        tcb.snd_una = 100
        tcb.snd_nxt = tcb.req = 101
        tcb.syn_received = True
        tcb.irs = 900
        tcb.cc["_latest_ack"] = 101
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.ESTABLISHED
        kinds = [note.kind for note in result.notifications]
        assert NoteKind.CONNECTED in kinds
        # The handshake-completing pure ACK goes out.
        assert any(d.length == 0 and d.flags == FLAG_ACK for d in result.directives)

    def test_ack_of_syn_ack_completes_server_handshake(self):
        fpu = Fpu()
        tcb = make_tcb(flow_id=1, state=TcpState.SYN_RECEIVED, iss=200, irs=900)
        tcb.snd_una = 200
        tcb.snd_nxt = tcb.req = 201
        tcb.rcv_nxt = 901
        tcb.cc["_latest_ack"] = 201
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.ESTABLISHED
        assert any(n.kind is NoteKind.ACCEPTED for n in result.notifications)


class TestDataTransfer:
    def test_sends_requested_data_within_window(self):
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 5000)
        result = fpu.process(tcb, 0, now_ps=0)
        data = [d for d in result.directives if d.length > 0]
        assert len(data) == 1
        assert data[0].length == 5000
        assert data[0].flags & FLAG_PSH
        assert tcb.snd_nxt == seq_add(tcb.snd_una, 5000)
        assert result.timer is TimerOp.ARM

    def test_cwnd_limits_transmission(self):
        fpu = Fpu()
        tcb = established(cwnd=2 * MSS)
        tcb.req = seq_add(tcb.snd_nxt, 100_000)
        result = fpu.process(tcb, 0, now_ps=0)
        assert result.directives[0].length == 2 * MSS

    def test_peer_window_limits_transmission(self):
        fpu = Fpu()
        tcb = established(snd_wnd=1000)
        tcb.req = seq_add(tcb.snd_nxt, 100_000)
        result = fpu.process(tcb, 0, now_ps=0)
        assert result.directives[0].length == 1000

    def test_accumulated_requests_sent_all_at_once(self):
        """§4.2.2: eight accumulated 100 B requests == one 800 B send."""
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 800)
        result = fpu.process(tcb, 0, now_ps=0)
        assert result.directives[0].length == 800

    def test_no_send_when_idle(self):
        fpu = Fpu()
        result = fpu.process(established(), 0, now_ps=0)
        assert result.directives == []

    def test_rtt_timing_started_on_send(self):
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 100)
        fpu.process(tcb, 0, now_ps=3500 * 10**9)
        assert tcb.rtt_seq == tcb.snd_nxt
        assert tcb.rtt_sent_at == 3500 * 10**9


class TestAckPath:
    def sent_tcb(self, bytes_out=10_000):
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, bytes_out)
        Fpu().process(tcb, 0, now_ps=0)  # emit the data
        return tcb

    def test_cumulative_ack_advances_una_and_notifies(self):
        fpu = Fpu()
        tcb = self.sent_tcb()
        ack_to = seq_add(tcb.snd_una, 4000)
        tcb.cc["_latest_ack"] = ack_to
        result = fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert tcb.snd_una == ack_to
        acked = [n for n in result.notifications if n.kind is NoteKind.ACKED]
        assert acked and acked[0].value == ack_to

    def test_rtt_sample_taken(self):
        fpu = Fpu()
        tcb = self.sent_tcb(bytes_out=100)
        tcb.cc["_latest_ack"] = tcb.snd_nxt
        fpu.process(tcb, 0, now_ps=20 * 10**9)
        assert tcb.srtt == 2 * 10**10
        assert tcb.rtt_seq is None

    def test_full_ack_cancels_timer(self):
        fpu = Fpu()
        tcb = self.sent_tcb()
        tcb.cc["_latest_ack"] = tcb.snd_nxt
        result = fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert result.timer is TimerOp.CANCEL

    def test_partial_ack_rearms_timer(self):
        fpu = Fpu()
        tcb = self.sent_tcb()
        tcb.cc["_latest_ack"] = seq_add(tcb.snd_una, 1000)
        result = fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert result.timer is TimerOp.ARM

    def test_ack_beyond_snd_nxt_ignored(self):
        fpu = Fpu()
        tcb = self.sent_tcb()
        una = tcb.snd_una
        tcb.cc["_latest_ack"] = seq_add(tcb.snd_nxt, 999)
        fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert tcb.snd_una == una

    def test_old_ack_ignored(self):
        fpu = Fpu()
        tcb = self.sent_tcb()
        una = tcb.snd_una
        tcb.cc["_latest_ack"] = una  # no advance
        result = fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert tcb.snd_una == una
        assert not any(n.kind is NoteKind.ACKED for n in result.notifications)


class TestLossRecovery:
    def lossy_tcb(self):
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 10 * MSS)
        Fpu().process(tcb, 0, now_ps=0)
        return tcb

    def test_triple_dupack_fast_retransmits(self):
        fpu = Fpu()
        tcb = self.lossy_tcb()
        result = fpu.process(tcb, 3, now_ps=10 * 10**9)
        rtx = [d for d in result.directives if d.retransmission]
        assert len(rtx) == 1
        assert rtx[0].seq == tcb.snd_una
        assert rtx[0].length == MSS
        assert tcb.in_recovery

    def test_dupacks_without_flight_ignored(self):
        fpu = Fpu()
        tcb = established()  # nothing in flight
        result = fpu.process(tcb, 3, now_ps=10 * 10**9)
        assert not any(d.retransmission for d in result.directives)

    def test_timeout_goes_back_n(self):
        fpu = Fpu()
        tcb = self.lossy_tcb()
        old_nxt = tcb.snd_nxt
        tcb.timeout_pending = True
        result = fpu.process(tcb, 0, now_ps=10**12)
        # Go-back-N: snd_nxt rolled back and the first window resent.
        rtx = [d for d in result.directives if d.retransmission]
        assert rtx and rtx[0].seq == tcb.snd_una
        assert rtx[0].length == MSS  # post-timeout cwnd = 1 MSS
        assert tcb.cwnd == MSS
        assert tcb.rto_backoff == 1
        assert result.timer is TimerOp.ARM

    def test_timeout_in_syn_sent_retransmits_syn(self):
        fpu = Fpu()
        tcb = Tcb(flow_id=1, iss=100)
        tcb.cc["_connect_req"] = True
        fpu.process(tcb, 0, now_ps=0)
        tcb.timeout_pending = True
        result = fpu.process(tcb, 0, now_ps=10**12)
        assert result.directives[0].flags == FLAG_SYN
        assert result.directives[0].retransmission

    def test_karns_rule(self):
        """Retransmitted data must not produce an RTT sample."""
        fpu = Fpu()
        tcb = self.lossy_tcb()
        tcb.timeout_pending = True
        fpu.process(tcb, 0, now_ps=10**12)
        assert tcb.rtt_seq is None


class TestZeroWindow:
    def test_blocked_sender_arms_persist_timer(self):
        fpu = Fpu()
        tcb = established(snd_wnd=0)
        tcb.req = seq_add(tcb.snd_nxt, 100)
        result = fpu.process(tcb, 0, now_ps=0)
        assert not any(d.length for d in result.directives)
        assert result.timer is TimerOp.ARM

    def test_probe_on_persist_expiry(self):
        fpu = Fpu()
        tcb = established(snd_wnd=0)
        tcb.req = seq_add(tcb.snd_nxt, 100)
        fpu.process(tcb, 0, now_ps=0)
        tcb.timeout_pending = True
        result = fpu.process(tcb, 0, now_ps=10**12)
        probes = [d for d in result.directives if d.length == 1]
        assert len(probes) == 1  # the 1-byte zero-window probe


class TestCloseAndReset:
    def test_close_emits_fin_after_data(self):
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 500)
        tcb.close_requested = True
        result = fpu.process(tcb, 0, now_ps=0)
        flags = [d.flags for d in result.directives]
        assert any(f & FLAG_FIN for f in flags)
        assert tcb.fin_sent
        assert tcb.state is TcpState.FIN_WAIT_1
        # FIN comes after the data in sequence space.
        fin = next(d for d in result.directives if d.flags & FLAG_FIN)
        data = next(d for d in result.directives if d.length == 500)
        assert fin.seq == seq_add(data.seq, 500)

    def test_peer_fin_acked_and_reported(self):
        fpu = Fpu()
        tcb = established()
        tcb.fin_received = True
        tcb.rcv_nxt = seq_add(tcb.rcv_nxt, 1)
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.CLOSE_WAIT
        assert any(n.kind is NoteKind.PEER_FIN for n in result.notifications)
        assert any(d.length == 0 and d.flags == FLAG_ACK for d in result.directives)

    def test_rst_notifies_and_cancels(self):
        fpu = Fpu()
        tcb = established()
        tcb.rst_received = True
        result = fpu.process(tcb, 0, now_ps=0)
        assert tcb.state is TcpState.CLOSED
        assert any(n.kind is NoteKind.RESET for n in result.notifications)
        assert result.timer is TimerOp.CANCEL

    def test_time_wait_expiry_closes(self):
        fpu = Fpu()
        tcb = established()
        tcb.state = TcpState.TIME_WAIT
        tcb.timeout_pending = True
        result = fpu.process(tcb, 0, now_ps=5 * 10**12)
        assert tcb.state is TcpState.CLOSED
        assert any(n.kind is NoteKind.CLOSED for n in result.notifications)


class TestAckGeneration:
    def test_received_data_gets_acked(self):
        fpu = Fpu()
        tcb = established()
        tcb.rcv_nxt = seq_add(tcb.rcv_nxt, 1000)
        tcb.ack_pending = True
        result = fpu.process(tcb, 0, now_ps=0)
        acks = [d for d in result.directives if d.flags & FLAG_ACK]
        assert acks and acks[0].ack == tcb.rcv_nxt
        assert not tcb.ack_pending
        assert tcb.last_ack_sent == tcb.rcv_nxt

    def test_ack_piggybacks_on_data(self):
        fpu = Fpu()
        tcb = established()
        tcb.rcv_nxt = seq_add(tcb.rcv_nxt, 1000)
        tcb.ack_pending = True
        tcb.req = seq_add(tcb.snd_nxt, 200)
        result = fpu.process(tcb, 0, now_ps=0)
        # One segment carrying both the data and the ACK; no pure ACK.
        assert len(result.directives) == 1
        assert result.directives[0].length == 200
        assert result.directives[0].ack == tcb.rcv_nxt

    def test_no_spurious_acks(self):
        fpu = Fpu()
        result = fpu.process(established(), 0, now_ps=0)
        assert result.directives == []

    def test_window_carried_in_ack(self):
        fpu = Fpu()
        tcb = established()
        tcb.ack_pending = True
        result = fpu.process(tcb, 0, now_ps=0)
        assert result.directives[0].window == tcb.rcv_wnd


class TestRollbackAckRace:
    """Regression: a cumulative ACK may arrive for data sent *before* a
    go-back-N rollback.  snd_max keeps it acceptable (the bug deadlocked
    a flow forever: the ACK exceeded the rolled-back snd_nxt and was
    discarded on every RTO round)."""

    def test_ack_beyond_rolled_back_snd_nxt_accepted(self):
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, 10 * MSS)
        fpu.process(tcb, 0, now_ps=0)  # sends 10 MSS; snd_max advances
        sent_high = tcb.snd_nxt
        # RTO: go-back-N rolls snd_nxt back and resends one segment.
        tcb.timeout_pending = True
        fpu.process(tcb, 0, now_ps=10**12)
        assert seq_lt(tcb.snd_nxt, sent_high)
        # A late cumulative ACK for everything originally sent arrives.
        tcb.cc["_latest_ack"] = sent_high
        result = fpu.process(tcb, 0, now_ps=1001 * 10**9)
        assert tcb.snd_una == sent_high
        assert tcb.snd_nxt == sent_high  # nothing left to resend
        assert any(n.kind is NoteKind.ACKED for n in result.notifications)

    def test_ack_beyond_snd_max_still_ignored(self):
        fpu = Fpu()
        tcb = established()
        tcb.req = seq_add(tcb.snd_nxt, MSS)
        fpu.process(tcb, 0, now_ps=0)
        una = tcb.snd_una
        tcb.cc["_latest_ack"] = seq_add(tcb.snd_max, 999)
        fpu.process(tcb, 0, now_ps=10 * 10**9)
        assert tcb.snd_una == una
