"""The Flow Processing Unit: stateless, fully pipelined TCP processing.

The FPU receives a *constructed* TCB from the TCB manager, processes all
accumulated events in one pass — deciding which data to transfer
(congestion and flow control), ACKing received data, advertising the
receive window, retransmitting, and sending probe packets (§4.2.2) — and
writes the updated TCB back.  It is stateless: everything it needs is in
the TCB, so it can be pipelined with any depth (§4.5) and users program
TCP algorithms by changing only this module (the HLS placeholder in
hardware; the :class:`~repro.tcp.congestion.base.CongestionControl`
subclass here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..tcp.congestion import CongestionControl, get_algorithm
from ..tcp.options import TcpOptions, WINDOW_SCALE
from ..tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from ..tcp.seq import seq_add, seq_ge, seq_gt, seq_le, seq_lt, seq_sub
from ..tcp.state_machine import (
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
from ..tcp.tcb import Tcb
from ..tcp.timers import backoff_rto, update_rtt


@dataclass
class TxDirective:
    """FPC's request to the packet generator (§4.1.2 ❶).

    ``length`` bytes starting at ``seq`` are fetched from the flow's TCP
    data buffer and appended after the generated header; the generator
    splits requests larger than the MSS into multiple segments.
    """

    flow_id: int
    seq: int
    length: int
    flags: int
    ack: int
    window: int
    retransmission: bool = False
    options: Optional[TcpOptions] = None

    @property
    def is_pure_ack(self) -> bool:
        return self.length == 0 and self.flags == FLAG_ACK


class NoteKind(enum.Enum):
    """Commands FtEngine sends up to the software (§4.1.1)."""

    ACKED = "acked"  # send-buffer space freed up to this pointer
    CONNECTED = "connected"  # active open completed
    ACCEPTED = "accepted"  # passive open completed
    PEER_FIN = "peer_fin"  # EOF: peer closed its direction
    CLOSED = "closed"  # connection fully closed
    RESET = "reset"  # connection aborted by RST


@dataclass
class HostNotification:
    kind: NoteKind
    flow_id: int
    value: int = 0


class TimerOp(enum.Enum):
    NONE = "none"
    ARM = "arm"
    CANCEL = "cancel"


@dataclass
class ProcessResult:
    """Everything one FPU pass produces."""

    tcb: Tcb
    directives: List[TxDirective] = field(default_factory=list)
    notifications: List[HostNotification] = field(default_factory=list)
    timer: TimerOp = TimerOp.NONE
    timer_deadline: float = 0.0


#: Give up on a connection after this many consecutive RTO backoffs
#: (Linux's tcp_retries2 analog); the flow is aborted with a RESET.
MAX_RTO_BACKOFF = 10


class Fpu:
    """Processes constructed TCBs; pure function of (TCB, dupACK count)."""

    #: Writer id the race sanitizer (repro.check) records for FPU
    #: writebacks: the FPU is the *only* legal writer of the TCB table
    #: in the dual-memory scheme (§4.2.3), besides the dedicated
    #: swap-in port.
    writer_id = "fpu"

    def __init__(self, algorithm: str = "newreno") -> None:
        self.cc: CongestionControl = get_algorithm(algorithm)
        self.passes = 0
        self.segments_requested = 0
        self.retransmissions = 0

    @property
    def latency_cycles(self) -> int:
        """Pipeline depth of the synthesized FPU for this algorithm."""
        return self.cc.fpu_latency_cycles

    # ------------------------------------------------------------ helpers
    def _arm(self, result: ProcessResult, tcb: Tcb, now_s: float) -> None:
        result.timer = TimerOp.ARM
        result.timer_deadline = now_s + tcb.rto
        tcb.rto_deadline = result.timer_deadline

    def _cancel(self, result: ProcessResult, tcb: Tcb) -> None:
        result.timer = TimerOp.CANCEL
        tcb.rto_deadline = None

    def _emit(
        self,
        result: ProcessResult,
        tcb: Tcb,
        seq: int,
        length: int,
        flags: int,
        retransmission: bool = False,
        options: Optional[TcpOptions] = None,
    ) -> None:
        window = tcb.rcv_wnd
        result.directives.append(
            TxDirective(
                flow_id=tcb.flow_id,
                seq=seq,
                length=length,
                flags=flags,
                ack=tcb.rcv_nxt if flags & FLAG_ACK else 0,
                window=window,
                retransmission=retransmission,
                options=options,
            )
        )
        if flags & FLAG_ACK:
            tcb.last_ack_sent = tcb.rcv_nxt
            tcb.last_wnd_sent = window
            tcb.ack_pending = False
        self.segments_requested += 1
        if retransmission:
            self.retransmissions += 1

    # ---------------------------------------------------------- main pass
    def process(self, tcb: Tcb, dup_count: int, now_s: float) -> ProcessResult:
        """One stateless pass over the accumulated events in ``tcb``."""
        self.passes += 1
        result = ProcessResult(tcb=tcb)
        tcb.last_active = max(tcb.last_active, now_s)
        if tcb.snd_max is None:
            tcb.snd_max = tcb.snd_nxt

        if tcb.rst_received:
            self._handle_rst(result, tcb)
            return result

        self._handle_connection_setup(result, tcb, now_s)
        self._handle_incoming_ack(result, tcb, now_s)
        if dup_count:
            self._handle_dupacks(result, tcb, dup_count, now_s)
        if tcb.timeout_pending:
            self._handle_timeout(result, tcb, now_s)
        self._transmit_new_data(result, tcb, now_s)
        self._handle_close(result, tcb, now_s)
        self._handle_peer_fin(result, tcb)
        self._generate_ack_if_needed(result, tcb)
        if tcb.state is TcpState.TIME_WAIT:
            # 2*MSL modelled as a couple of RTOs; expiry closes the flow.
            self._arm(result, tcb, now_s)
        # High-water mark: go-back-N may roll snd_nxt back, but data up
        # to snd_max is on the wire and may still be cumulatively ACKed.
        if seq_gt(tcb.snd_nxt, tcb.snd_max):
            tcb.snd_max = tcb.snd_nxt
        return result

    # ------------------------------------------------------------- pieces
    def _handle_rst(self, result: ProcessResult, tcb: Tcb) -> None:
        tcb.state = on_rst(tcb.state)
        tcb.rst_received = False
        result.notifications.append(HostNotification(NoteKind.RESET, tcb.flow_id))
        self._cancel(result, tcb)

    def _handle_connection_setup(
        self, result: ProcessResult, tcb: Tcb, now_s: float
    ) -> None:
        if tcb.cc.pop("_connect_req", False) and tcb.state is TcpState.CLOSED:
            # Active open: emit SYN carrying our MSS and start the CC.
            tcb.state = TcpState.SYN_SENT
            tcb.snd_una = tcb.iss
            tcb.snd_nxt = tcb.iss
            self.cc.on_init(tcb, now_s)
            self._emit(
                result,
                tcb,
                seq=tcb.snd_nxt,
                length=0,
                flags=FLAG_SYN,
                options=TcpOptions(mss=tcb.mss, window_scale=WINDOW_SCALE),
            )
            tcb.snd_nxt = seq_add(tcb.snd_nxt, 1)
            tcb.rtt_seq = tcb.snd_nxt  # time the SYN for the first sample
            tcb.rtt_sent_at = now_s
            self._arm(result, tcb, now_s)
            return

        if not tcb.syn_received:
            return
        tcb.syn_received = False
        if tcb.state in (TcpState.LISTEN, TcpState.CLOSED):
            # Passive open: the RX parser created this flow from a SYN.
            tcb.state = on_syn_received(TcpState.LISTEN)
            tcb.rcv_nxt = seq_add(tcb.irs, 1)
            tcb.rcv_user = tcb.rcv_nxt
            tcb.snd_una = tcb.iss
            tcb.snd_nxt = tcb.iss
            self.cc.on_init(tcb, now_s)
            self._emit(
                result,
                tcb,
                seq=tcb.snd_nxt,
                length=0,
                flags=FLAG_SYN | FLAG_ACK,
                options=TcpOptions(mss=tcb.mss, window_scale=WINDOW_SCALE),
            )
            tcb.snd_nxt = seq_add(tcb.snd_nxt, 1)
            tcb.rtt_seq = tcb.snd_nxt  # time the SYN-ACK
            tcb.rtt_sent_at = now_s
            self._arm(result, tcb, now_s)
        elif tcb.state is TcpState.SYN_SENT:
            # SYN-ACK (or simultaneous open SYN) arrived.
            tcb.rcv_nxt = seq_add(tcb.irs, 1)
            tcb.rcv_user = tcb.rcv_nxt
            tcb.ack_pending = True
            tcb.cc["_peer_syn_seen"] = True
        elif tcb.state is TcpState.SYN_RECEIVED:
            # Retransmitted SYN: our SYN-ACK was lost.  Send it again —
            # a bare ACK would not carry our ISS, and the peer cannot
            # leave SYN_SENT without it.  The RTO armed for the first
            # SYN-ACK keeps running.
            self._emit(
                result, tcb, seq=tcb.iss, length=0,
                flags=FLAG_SYN | FLAG_ACK, retransmission=True,
                options=TcpOptions(mss=tcb.mss, window_scale=WINDOW_SCALE),
            )
        else:
            # Duplicate SYN/SYN-ACK in a synchronized state: our ACK was
            # lost; answer with a challenge ACK (RFC 793) so the peer's
            # handshake completes.
            tcb.ack_pending = True

    def _handle_incoming_ack(
        self, result: ProcessResult, tcb: Tcb, now_s: float
    ) -> None:
        latest_ack = tcb.cc.pop("_latest_ack", None)
        if latest_ack is None:
            return
        if tcb.state is TcpState.SYN_SENT and "_peer_syn_seen" not in tcb.cc:
            # RFC 793: an ACK without the peer's SYN is dropped in
            # SYN-SENT.  rcv_nxt is still unknown, so completing the
            # handshake here would ACK 0 for the rest of the connection.
            return
        sent_high = tcb.snd_max if tcb.snd_max is not None else tcb.snd_nxt
        if seq_gt(latest_ack, sent_high):
            # ACK for data never sent: ignore (a real stack would
            # challenge-ACK; the simulated peer never does this).
            return
        acked = seq_sub(latest_ack, tcb.snd_una)
        if acked <= 0:
            return
        old_una = tcb.snd_una
        tcb.snd_una = latest_ack
        if seq_gt(tcb.snd_una, tcb.snd_nxt):
            # The ACK covers data sent before a go-back-N rollback:
            # nothing in that range needs resending.
            tcb.snd_nxt = tcb.snd_una

        # SYN occupies one sequence number: its ACK completes setup.
        if tcb.state is TcpState.SYN_SENT and seq_ge(
            tcb.snd_una, seq_add(tcb.iss, 1)
        ):
            tcb.state = on_syn_ack_received(tcb.state)
            del tcb.cc["_peer_syn_seen"]
            result.notifications.append(
                HostNotification(NoteKind.CONNECTED, tcb.flow_id)
            )
            acked -= 1
        elif tcb.state is TcpState.SYN_RECEIVED and seq_ge(
            tcb.snd_una, seq_add(tcb.iss, 1)
        ):
            tcb.state = on_ack_of_syn(tcb.state)
            result.notifications.append(
                HostNotification(NoteKind.ACCEPTED, tcb.flow_id)
            )
            acked -= 1

        # RTT sample: the timed sequence got covered.
        rtt_sample: Optional[float] = None
        if tcb.rtt_seq is not None and seq_ge(tcb.snd_una, tcb.rtt_seq):
            rtt_sample = max(0.0, now_s - tcb.rtt_sent_at)
            update_rtt(tcb, rtt_sample)
            self.cc.on_rtt_sample(tcb, rtt_sample, now_s)
            tcb.rtt_seq = None

        # FIN ACKed?  (The FIN consumed the last sequence number.)
        fin_seq = tcb.cc.get("_fin_seq")
        if (
            tcb.fin_sent
            and not tcb.fin_acked
            and fin_seq is not None
            and seq_ge(tcb.snd_una, seq_add(fin_seq, 1))
        ):
            tcb.fin_acked = True
            acked -= 1
            tcb.state = on_ack_of_fin(tcb.state)
            if tcb.state is TcpState.CLOSED:
                result.notifications.append(
                    HostNotification(NoteKind.CLOSED, tcb.flow_id)
                )
                self._cancel(result, tcb)

        if acked > 0:
            retransmit_first = self.cc.on_ack(tcb, acked, now_s, rtt_sample)
            if retransmit_first:
                self._retransmit_missing(result, tcb)
            result.notifications.append(
                HostNotification(NoteKind.ACKED, tcb.flow_id, value=tcb.snd_una)
            )

        if not tcb.in_recovery:
            tcb.cc.pop("_sack_rtx_high", None)
        # ACKed data invalidates stale SACK blocks below snd_una.
        tcb.sacked = [
            (s0, e0) for s0, e0 in tcb.sacked if seq_gt(e0, tcb.snd_una)
        ]

        # Timer: everything acknowledged -> cancel; otherwise restart.
        if tcb.bytes_in_flight == 0 and not (tcb.fin_sent and not tcb.fin_acked):
            if tcb.state is not TcpState.CLOSED:
                self._cancel(result, tcb)
        else:
            self._arm(result, tcb, now_s)

    def _handle_dupacks(
        self, result: ProcessResult, tcb: Tcb, dup_count: int, now_s: float
    ) -> None:
        if tcb.bytes_in_flight == 0:
            return
        if tcb.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            # Only the SYN is in flight: it occupies a sequence number
            # but no byte of the send stream, so there is nothing for
            # fast retransmit to fetch.  The RTO resends it.
            return
        if self.cc.on_dupacks(tcb, dup_count, now_s):
            self._retransmit_missing(result, tcb)
            self._arm(result, tcb, now_s)
        elif tcb.in_recovery and tcb.sacked:
            # Additional dupACKs revealed more holes: keep filling them.
            self._retransmit_missing(result, tcb, limit=1)

    def _sack_holes(self, tcb: Tcb) -> List[Tuple[int, int]]:
        """Missing ranges between snd_una and the highest SACKed byte.

        RFC 2018: data below a SACKed block that is not itself SACKed is
        (probably) lost; everything above the highest block is merely
        not-yet-acknowledged and must not be retransmitted early.
        """
        if not tcb.sacked:
            return []
        blocks = [
            (start, end)
            for start, end in tcb.sacked
            if seq_gt(end, tcb.snd_una) and seq_le(end, tcb.snd_nxt)
        ]
        blocks.sort(key=lambda block: seq_sub(block[0], tcb.snd_una))
        holes: List[Tuple[int, int]] = []
        cursor = tcb.snd_una
        for start, end in blocks:
            if seq_gt(start, cursor):
                holes.append((cursor, start))
            if seq_gt(end, cursor):
                cursor = end
        return holes

    def _retransmit_missing(self, result: ProcessResult, tcb: Tcb, limit: int = 2) -> None:
        """SACK-aware fast retransmit: resend only the known holes.

        Falls back to the first-unacked segment when no SACK information
        is available.  ``_sack_rtx_high`` tracks what this recovery
        episode already resent so repeated dupACK passes walk forward
        through the holes instead of re-sending the first one.
        """
        holes = self._sack_holes(tcb)
        if not holes:
            self._retransmit_one(result, tcb)
            return
        high = tcb.cc.get("_sack_rtx_high", tcb.snd_una)
        if seq_lt(high, tcb.snd_una):
            high = tcb.snd_una
        sent = 0
        for start, end in holes:
            cursor = start if seq_ge(start, high) else high
            while sent < limit and seq_lt(cursor, end):
                length = min(tcb.mss, seq_sub(end, cursor))
                self._emit(
                    result, tcb, seq=cursor, length=length,
                    flags=FLAG_ACK | FLAG_PSH, retransmission=True,
                )
                cursor = seq_add(cursor, length)
                tcb.cc["_sack_rtx_high"] = cursor
                sent += 1
            if sent >= limit:
                break
        # sent == 0 means every known hole was already resent this
        # episode: do nothing — if a retransmission itself was lost, the
        # RTO repairs it (retransmitting again on every dupACK would
        # just burst duplicates into a congested path).

    def _retransmit_one(self, result: ProcessResult, tcb: Tcb) -> None:
        """Fast retransmit: resend the first unacknowledged segment."""
        length = min(tcb.mss, max(1, tcb.bytes_in_flight))
        fin_seq = tcb.cc.get("_fin_seq")
        if fin_seq is not None and tcb.snd_una == fin_seq:
            # Only the FIN is outstanding.
            self._emit(
                result, tcb, seq=fin_seq, length=0,
                flags=FLAG_FIN | FLAG_ACK, retransmission=True,
            )
            return
        if fin_seq is not None:
            length = min(length, max(1, seq_sub(fin_seq, tcb.snd_una)))
        self._emit(
            result,
            tcb,
            seq=tcb.snd_una,
            length=length,
            flags=FLAG_ACK | FLAG_PSH,
            retransmission=True,
        )

    def _handle_timeout(
        self, result: ProcessResult, tcb: Tcb, now_s: float
    ) -> None:
        tcb.timeout_pending = False
        if tcb.rto_backoff >= MAX_RTO_BACKOFF:
            # The peer is unreachable: abort rather than retry forever.
            tcb.state = on_rst(tcb.state)
            result.notifications.append(
                HostNotification(NoteKind.RESET, tcb.flow_id)
            )
            self._cancel(result, tcb)
            return
        if tcb.state is TcpState.TIME_WAIT:
            tcb.state = TcpState.CLOSED
            result.notifications.append(
                HostNotification(NoteKind.CLOSED, tcb.flow_id)
            )
            self._cancel(result, tcb)
            return
        if tcb.state is TcpState.SYN_SENT:
            # Retransmit the SYN.
            backoff_rto(tcb)
            self._emit(
                result, tcb, seq=tcb.iss, length=0, flags=FLAG_SYN,
                retransmission=True, options=TcpOptions(mss=tcb.mss, window_scale=WINDOW_SCALE),
            )
            self._arm(result, tcb, now_s)
            return
        if tcb.state is TcpState.SYN_RECEIVED:
            backoff_rto(tcb)
            self._emit(
                result, tcb, seq=tcb.iss, length=0,
                flags=FLAG_SYN | FLAG_ACK, retransmission=True,
                options=TcpOptions(mss=tcb.mss, window_scale=WINDOW_SCALE),
            )
            self._arm(result, tcb, now_s)
            return
        if tcb.bytes_in_flight > 0:
            # Go-back-N: collapse snd_nxt and let the send path resend
            # under the post-timeout one-segment window.
            self.cc.on_timeout(tcb, now_s)
            backoff_rto(tcb)
            fin_seq = tcb.cc.get("_fin_seq")
            if tcb.fin_sent and fin_seq is not None and seq_ge(fin_seq, tcb.snd_una):
                tcb.fin_sent = False  # the FIN must be resent too
            tcb.snd_nxt = tcb.snd_una
            tcb.rtt_seq = None  # Karn's rule: never time retransmissions
            tcb.cc["_retransmitting"] = True
            tcb.cc.pop("_sack_rtx_high", None)
            tcb.sacked = []  # go-back-N resends everything anyway
            self._arm(result, tcb, now_s)
        elif tcb.snd_wnd == 0 and tcb.bytes_unsent > 0:
            # Persist timer fired: send a 1-byte zero-window probe.
            self._emit(
                result,
                tcb,
                seq=tcb.snd_nxt,
                length=1,
                flags=FLAG_ACK | FLAG_PSH,
                retransmission=False,
            )
            tcb.snd_nxt = seq_add(tcb.snd_nxt, 1)
            backoff_rto(tcb)
            self._arm(result, tcb, now_s)

    def _transmit_new_data(
        self, result: ProcessResult, tcb: Tcb, now_s: float
    ) -> None:
        if tcb.state not in DATA_STATES:
            return
        retransmitting = tcb.cc.pop("_retransmitting", False)
        unsent = tcb.bytes_unsent
        if unsent <= 0:
            return
        window = tcb.effective_window
        sendable = min(unsent, window)
        if sendable <= 0:
            if tcb.snd_wnd == 0 and tcb.bytes_in_flight == 0:
                # Blocked on a zero window: arm the persist timer.
                self._arm(result, tcb, now_s)
            return
        self._emit(
            result,
            tcb,
            seq=tcb.snd_nxt,
            length=sendable,
            flags=FLAG_ACK | FLAG_PSH,
            retransmission=retransmitting,
        )
        if tcb.rtt_seq is None and not retransmitting:
            tcb.rtt_seq = seq_add(tcb.snd_nxt, sendable)
            tcb.rtt_sent_at = now_s
        tcb.snd_nxt = seq_add(tcb.snd_nxt, sendable)
        self._arm(result, tcb, now_s)

    def _handle_close(self, result: ProcessResult, tcb: Tcb, now_s: float) -> None:
        if (
            not tcb.close_requested
            or tcb.fin_sent
            or tcb.bytes_unsent > 0
            or tcb.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)
        ):
            return
        self._emit(result, tcb, seq=tcb.snd_nxt, length=0, flags=FLAG_FIN | FLAG_ACK)
        tcb.cc["_fin_seq"] = tcb.snd_nxt
        tcb.snd_nxt = seq_add(tcb.snd_nxt, 1)
        tcb.fin_sent = True
        tcb.state = on_close(tcb.state)
        self._arm(result, tcb, now_s)

    def _handle_peer_fin(self, result: ProcessResult, tcb: Tcb) -> None:
        if not tcb.fin_received:
            return
        tcb.fin_received = False
        tcb.state = on_fin_received(tcb.state)
        tcb.ack_pending = True
        result.notifications.append(
            HostNotification(NoteKind.PEER_FIN, tcb.flow_id, value=tcb.rcv_nxt)
        )
        if tcb.state is TcpState.TIME_WAIT:
            # 2*MSL modelled as a few RTOs; the timeout path closes us.
            result.timer = TimerOp.ARM
            result.timer_deadline = tcb.last_active + 2 * tcb.rto
            tcb.rto_deadline = result.timer_deadline

    def _generate_ack_if_needed(self, result: ProcessResult, tcb: Tcb) -> None:
        if tcb.state in (TcpState.CLOSED, TcpState.LISTEN, TcpState.SYN_SENT):
            if not tcb.ack_pending or tcb.state is not TcpState.SYN_SENT:
                return
        window_opened = (
            0 <= tcb.last_wnd_sent < 2 * tcb.mss
            and tcb.rcv_wnd >= tcb.last_wnd_sent + 2 * tcb.mss
        )
        if (
            tcb.ack_pending
            or seq_gt(tcb.rcv_nxt, tcb.last_ack_sent)
            or window_opened
        ):
            self._emit(result, tcb, seq=tcb.snd_nxt, length=0, flags=FLAG_ACK)
