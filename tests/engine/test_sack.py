"""Selective acknowledgment (RFC 2018): holes, not go-back-N."""

import pytest

from repro.engine.fpu import Fpu
from repro.engine.testbed import Testbed
from repro.net.wire import LossPattern, Wire
from repro.tcp.seq import seq_add
from repro.tcp.state_machine import TcpState

from .._records import make_tcb

MSS = 1460


def established(flight_segments=10):
    tcb = make_tcb(flow_id=1, state=TcpState.ESTABLISHED, iss=1000, irs=5000)
    tcb.snd_una = 1001
    tcb.snd_nxt = tcb.req = seq_add(1001, flight_segments * MSS)
    tcb.rcv_nxt = tcb.rcv_user = tcb.last_ack_sent = 5001
    tcb.last_wnd_sent = tcb.rcv_wnd
    tcb.cwnd = 1 << 22
    tcb.snd_wnd = 1 << 22
    return tcb


class TestHoleComputation:
    def test_no_sack_no_holes(self):
        fpu = Fpu()
        assert fpu._sack_holes(established()) == []

    def test_single_hole_before_block(self):
        fpu = Fpu()
        tcb = established()
        block_start = seq_add(tcb.snd_una, 2 * MSS)
        tcb.sacked = [(block_start, seq_add(block_start, 3 * MSS))]
        holes = fpu._sack_holes(tcb)
        assert holes == [(tcb.snd_una, block_start)]

    def test_hole_between_blocks(self):
        fpu = Fpu()
        tcb = established()
        a = (seq_add(tcb.snd_una, MSS), seq_add(tcb.snd_una, 2 * MSS))
        b = (seq_add(tcb.snd_una, 4 * MSS), seq_add(tcb.snd_una, 6 * MSS))
        tcb.sacked = [b, a]  # unsorted on purpose
        holes = fpu._sack_holes(tcb)
        assert holes == [(tcb.snd_una, a[0]), (a[1], b[0])]

    def test_stale_blocks_ignored(self):
        fpu = Fpu()
        tcb = established()
        behind = (seq_add(tcb.snd_una, -3 * MSS), tcb.snd_una)  # fully acked
        tcb.sacked = [behind]
        assert fpu._sack_holes(tcb) == []

    def test_nothing_above_highest_block_is_a_hole(self):
        """Data past the last SACK block is in flight, not lost."""
        fpu = Fpu()
        tcb = established(flight_segments=20)
        block = (seq_add(tcb.snd_una, MSS), seq_add(tcb.snd_una, 2 * MSS))
        tcb.sacked = [block]
        holes = fpu._sack_holes(tcb)
        assert holes[-1][1] == block[0]  # ends at the block, not snd_nxt


class TestSackRetransmission:
    def test_dupacks_with_sack_retransmit_the_holes(self):
        fpu = Fpu()
        tcb = established(flight_segments=10)
        # Segments 2 and 5 lost: blocks cover [3,5) and [6,10).
        s = lambda k: seq_add(tcb.snd_una, k * MSS)
        tcb.sacked = [(s(2), s(4)), (s(5), s(9))]
        result = fpu.process(tcb, 3, now_ps=10 * 10**9)
        retransmitted = [
            (d.seq, d.length) for d in result.directives if d.retransmission
        ]
        assert (s(0), MSS) in retransmitted  # hole 1 start
        # Only holes retransmitted — never SACKed data.
        for seq, length in retransmitted:
            assert seq in (s(0), s(1), s(4))

    def test_recovery_walks_forward_through_holes(self):
        fpu = Fpu()
        tcb = established(flight_segments=10)
        s = lambda k: seq_add(tcb.snd_una, k * MSS)
        tcb.sacked = [(s(1), s(3)), (s(4), s(9))]
        first = fpu.process(tcb, 3, now_ps=10 * 10**9)
        first_rtx = [d.seq for d in first.directives if d.retransmission]
        second = fpu.process(tcb, 1, now_ps=11 * 10**9)
        second_rtx = [d.seq for d in second.directives if d.retransmission]
        # The second pass does not resend what the first already did.
        assert not set(first_rtx) & set(second_rtx)

    def test_without_sack_falls_back_to_first_segment(self):
        fpu = Fpu()
        tcb = established(flight_segments=10)
        result = fpu.process(tcb, 3, now_ps=10 * 10**9)
        rtx = [d for d in result.directives if d.retransmission]
        assert len(rtx) == 1
        assert rtx[0].seq == tcb.snd_una


class TestSackEndToEnd:
    def _run_with_burst_loss(self, indices):
        wire = Wire(drop_a_to_b=LossPattern.explicit(indices))
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = bytes(i % 256 for i in range(200_000))
        sent = {"n": 0}

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(
                    a_flow, data[sent["n"] : sent["n"] + 16384]
                )
            return testbed.engine_b.readable(b_flow) >= len(data)

        assert testbed.run(until=pump, max_time_s=5.0)
        assert testbed.engine_b.recv_data(b_flow, len(data)) == data
        return testbed

    def test_receiver_advertises_sack_blocks(self):
        """With a hole outstanding, outgoing dupACKs carry SACK blocks."""
        from repro.net.pcap import WireTap

        wire = Wire(drop_a_to_b=LossPattern.explicit([20]))
        testbed = Testbed(wire=wire)
        tap = WireTap.attach(testbed.wire.port_b)  # B's ACKs
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, bytes(100_000))
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 100_000,
            max_time_s=5.0,
        )
        sacked_acks = [
            p for p in tap.writer.packets
            if p.segment is not None and p.segment.options.sack_blocks
        ]
        assert sacked_acks, "no ACK ever carried SACK blocks"

    def test_multi_loss_recovery(self):
        """Several drops inside one window all repair via fast recovery."""
        testbed = self._run_with_burst_loss([30, 33, 36])
        # Retransmissions happened, but far fewer than go-back-N would
        # need (the whole remaining window each time).
        rtx = testbed.engine_a.counters["retransmissions"]
        assert 3 <= rtx <= 12

    def test_sparse_loss_recovery(self):
        self._run_with_burst_loss([25, 60, 95])
