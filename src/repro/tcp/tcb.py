"""The Transmission Control Block: all per-flow transmission state.

TCP maintains per-flow state in the TCB and processes every event as a
read-modify-write on it (§2.5).  F4T's whole architecture is organized
around this structure: the event handler overwrites its cumulative
pointers, the TCB manager merges the dual-memory copies, the FPU reads a
snapshot and writes an updated TCB back, and the scheduler migrates whole
TCBs between FPC SRAM and DRAM.

Pointers follow RFC 793 naming plus the paper's ``req`` pointer: the
application's send request expressed as a *pointer in sequence space*
(the F4T library sends pointers, not lengths, so requests accumulate by
overwriting, §4.2.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from .segment import FlowKey
from .seq import seq_sub
from .state_machine import TcpState

#: Default per-flow buffer size used in the paper's evaluation (§5).
DEFAULT_BUFFER_BYTES = 512 * 1024
#: Maximum segment size used in the paper's evaluation (§5).
DEFAULT_MSS = 1460

#: Size of a serialized TCB; sets DRAM swap traffic (Fig 13).  128 B is
#: consistent with the paper's field inventory (a few dozen 32-bit
#: pointers plus congestion-control scratch space).
TCB_SIZE_BYTES = 128

#: RFC 6298's initial RTO (1 s), in ps.
INITIAL_RTO_PS = 10**12

#: The SACK blocks of a flow that has seen none.  ``Tcb.sacked`` is only
#: ever replaced, never changed in place, so flows and their snapshots
#: share it (and share any list they were given).
_NO_SACK_BLOCKS: Tuple[Tuple[int, int], ...] = ()


class Tcb:
    """Per-flow transmission control block.

    A slotted record: one fixed set of fields per flow and no instance
    dict, so a TCB costs what its fields do (the engine holds one per
    flow, plus the FPU's snapshots).  The constructor takes what flow
    creation sets; every other field starts at its initial state.
    """

    __slots__ = (
        "flow_id", "key", "state",
        # send side
        "req", "snd_una", "snd_nxt", "snd_max", "snd_wnd", "iss",
        # receive side
        "rcv_nxt", "rcv_user", "rcv_buf", "irs", "last_ack_sent",
        "last_wnd_sent",
        # congestion control
        "cwnd", "ssthresh", "dupacks", "recover", "in_recovery", "cc",
        "sacked",
        # RTT estimation / retransmission
        "srtt", "rttvar", "rto", "rto_deadline", "rto_backoff", "rtt_seq",
        "rtt_sent_at",
        # accumulated event flags
        "timeout_pending", "fin_received", "rst_received", "syn_received",
        "ack_pending", "close_requested", "fin_sent", "fin_acked",
        # engine bookkeeping
        "mss", "send_buf", "evict_flag", "last_active",
    )

    def __init__(
        self,
        flow_id: int,
        key: Optional[FlowKey] = None,
        iss: int = 0,
        req: int = 0,
        snd_una: int = 0,
        snd_nxt: int = 0,
        mss: int = DEFAULT_MSS,
        send_buf: int = DEFAULT_BUFFER_BYTES,
        rcv_buf: int = DEFAULT_BUFFER_BYTES,
        last_active: int = 0,
    ) -> None:
        self.flow_id = flow_id
        self.key = key
        self.state = TcpState.CLOSED

        # ---- send-side cumulative pointers (sequence space) ----
        #: Application's send request pointer: the app has asked to send
        #: all bytes up to (but not including) ``req``.
        self.req = req
        #: Oldest unacknowledged byte (advances on cumulative ACKs).
        self.snd_una = snd_una
        #: Next byte to send (boundary of data already handed to the wire).
        self.snd_nxt = snd_nxt
        #: Highest snd_nxt ever reached (survives go-back-N rollbacks); a
        #: cumulative ACK is valid up to here, not just up to snd_nxt.
        self.snd_max: Optional[int] = None
        #: Peer's advertised receive window (bytes).
        self.snd_wnd = 65535
        #: Initial send sequence number.
        self.iss = iss

        # ---- receive side ----
        #: Next expected in-order byte (the RX parser's reassembled pointer).
        self.rcv_nxt = 0
        #: Byte pointer up to which the application has consumed data.
        self.rcv_user = 0
        #: Receive buffer capacity; the advertised window derives from it.
        self.rcv_buf = rcv_buf
        #: Initial receive sequence number.
        self.irs = 0
        #: rcv_nxt value carried in the last ACK we sent.
        self.last_ack_sent = 0
        #: Last window value we advertised; -1 until the first ACK goes
        #: out (distinguishes "never advertised" from "advertised zero").
        self.last_wnd_sent = -1

        # ---- congestion control ----
        self.cwnd = 10 * DEFAULT_MSS
        self.ssthresh = 1 << 30
        self.dupacks = 0
        #: Highest snd_nxt at loss detection; NewReno's ``recover`` pointer.
        self.recover = 0
        self.in_recovery = False
        #: Algorithm-private scratch state (CUBIC epoch, Vegas baseRTT, ...).
        self.cc: Dict[str, Any] = {}
        #: Latest selective-ACK blocks from the peer (RFC 2018): sequence
        #: ranges known received out of order, used to retransmit only the
        #: holes instead of going back N.  Replaced, never mutated.
        self.sacked: Sequence[Tuple[int, int]] = _NO_SACK_BLOCKS

        # ---- RTT estimation / retransmission (RFC 6298) ----
        # Every time here is integer picoseconds, like the engine's clock.
        #: None until the first RTT sample.
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = INITIAL_RTO_PS
        self.rto_deadline: Optional[int] = None
        self.rto_backoff = 0
        #: Sequence being timed and its send instant, for RTT sampling.
        self.rtt_seq: Optional[int] = None
        self.rtt_sent_at = 0

        # ---- accumulated event flags (written by the event handler) ----
        self.timeout_pending = False
        self.fin_received = False
        self.rst_received = False
        self.syn_received = False
        self.ack_pending = False
        #: Application asked to close (FIN should be sent after ``req``).
        self.close_requested = False
        self.fin_sent = False
        self.fin_acked = False

        # ---- engine bookkeeping ----
        self.mss = mss
        self.send_buf = send_buf
        #: Set by the scheduler to request eviction; honoured by the
        #: evict checker after processing (§4.3.2).
        self.evict_flag = False
        #: Instant (ps) of last activity, for coldest-flow selection.
        self.last_active = last_active

    # ------------------------------------------------------------ derived
    @property
    def bytes_unsent(self) -> int:
        """Data requested by the app but not yet put on the wire."""
        return max(0, seq_sub(self.req, self.snd_nxt))

    @property
    def bytes_in_flight(self) -> int:
        return max(0, seq_sub(self.snd_nxt, self.snd_una))

    @property
    def rcv_wnd(self) -> int:
        """Receive window to advertise: buffer minus undelivered data."""
        used = max(0, seq_sub(self.rcv_nxt, self.rcv_user))
        return max(0, self.rcv_buf - used)

    @property
    def effective_window(self) -> int:
        """min(cwnd, peer window) minus in-flight: sendable right now."""
        return max(0, min(self.cwnd, self.snd_wnd) - self.bytes_in_flight)

    def can_send_now(self) -> bool:
        """Check-logic predicate: would processing emit a packet? (§4.3.1)

        True when there is unsent data inside the windows, a pending
        ACK/FIN, a retransmission, or a zero-window probe to send.
        """
        if self.ack_pending or self.timeout_pending or self.dupacks >= 3:
            return True
        if self.close_requested and not self.fin_sent and self.bytes_unsent == 0:
            return True
        if self.bytes_unsent > 0 and self.effective_window > 0:
            return True
        if self.bytes_unsent > 0 and self.snd_wnd == 0:
            return True  # zero-window probe
        return False

    def clone(self) -> "Tcb":
        """Snapshot for the FPU pipeline (stateless processing input).

        Field by field from ``self``: the constructor's initial state
        would only be overwritten.  ``cc`` is the one mutable field, so
        the snapshot gets a copy of it (``sacked`` is only replaced).
        """
        copy = object.__new__(Tcb)
        copy.flow_id = self.flow_id
        copy.key = self.key
        copy.state = self.state
        copy.req = self.req
        copy.snd_una = self.snd_una
        copy.snd_nxt = self.snd_nxt
        copy.snd_max = self.snd_max
        copy.snd_wnd = self.snd_wnd
        copy.iss = self.iss
        copy.rcv_nxt = self.rcv_nxt
        copy.rcv_user = self.rcv_user
        copy.rcv_buf = self.rcv_buf
        copy.irs = self.irs
        copy.last_ack_sent = self.last_ack_sent
        copy.last_wnd_sent = self.last_wnd_sent
        copy.cwnd = self.cwnd
        copy.ssthresh = self.ssthresh
        copy.dupacks = self.dupacks
        copy.recover = self.recover
        copy.in_recovery = self.in_recovery
        copy.cc = dict(self.cc)
        copy.sacked = self.sacked
        copy.srtt = self.srtt
        copy.rttvar = self.rttvar
        copy.rto = self.rto
        copy.rto_deadline = self.rto_deadline
        copy.rto_backoff = self.rto_backoff
        copy.rtt_seq = self.rtt_seq
        copy.rtt_sent_at = self.rtt_sent_at
        copy.timeout_pending = self.timeout_pending
        copy.fin_received = self.fin_received
        copy.rst_received = self.rst_received
        copy.syn_received = self.syn_received
        copy.ack_pending = self.ack_pending
        copy.close_requested = self.close_requested
        copy.fin_sent = self.fin_sent
        copy.fin_acked = self.fin_acked
        copy.mss = self.mss
        copy.send_buf = self.send_buf
        copy.evict_flag = self.evict_flag
        copy.last_active = self.last_active
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tcb flow={self.flow_id} {self.state.value} req={self.req} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt} "
            f"cwnd={self.cwnd}>"
        )
