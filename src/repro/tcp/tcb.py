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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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


@dataclass
class Tcb:
    """Per-flow transmission control block."""

    flow_id: int
    key: Optional[FlowKey] = None
    state: TcpState = TcpState.CLOSED

    # ---- send-side cumulative pointers (sequence space) ----
    #: Application's send request pointer: the app has asked to send all
    #: bytes up to (but not including) ``req``.
    req: int = 0
    #: Oldest unacknowledged byte (advances on cumulative ACKs).
    snd_una: int = 0
    #: Next byte to send (boundary of data already handed to the wire).
    snd_nxt: int = 0
    #: Highest snd_nxt ever reached (survives go-back-N rollbacks); a
    #: cumulative ACK is valid up to here, not just up to snd_nxt.
    snd_max: Optional[int] = None
    #: Peer's advertised receive window (bytes).
    snd_wnd: int = 65535
    #: Initial send sequence number.
    iss: int = 0

    # ---- receive side ----
    #: Next expected in-order byte (the RX parser's reassembled pointer).
    rcv_nxt: int = 0
    #: Byte pointer up to which the application has consumed data.
    rcv_user: int = 0
    #: Receive buffer capacity; the advertised window derives from it.
    rcv_buf: int = DEFAULT_BUFFER_BYTES
    #: Initial receive sequence number.
    irs: int = 0
    #: rcv_nxt value carried in the last ACK we sent.
    last_ack_sent: int = 0
    #: Last window value we advertised; -1 until the first ACK goes out
    #: (distinguishes "never advertised" from "advertised zero").
    last_wnd_sent: int = -1

    # ---- congestion control ----
    cwnd: int = 10 * DEFAULT_MSS
    ssthresh: int = 1 << 30
    dupacks: int = 0
    #: Highest snd_nxt at loss detection; NewReno's ``recover`` pointer.
    recover: int = 0
    in_recovery: bool = False
    #: Algorithm-private scratch state (CUBIC epoch, Vegas baseRTT, ...).
    cc: Dict[str, Any] = field(default_factory=dict)
    #: Latest selective-ACK blocks from the peer (RFC 2018): sequence
    #: ranges known received out of order, used to retransmit only the
    #: holes instead of going back N.
    sacked: List[Tuple[int, int]] = field(default_factory=list)

    # ---- RTT estimation / retransmission (RFC 6298) ----
    # Every time here is integer picoseconds, like the engine's clock.
    #: None until the first RTT sample.
    srtt: Optional[int] = None
    rttvar: int = 0
    #: ``tcp.timers.INITIAL_RTO_PS`` (1 s).
    rto: int = 10**12
    rto_deadline: Optional[int] = None
    rto_backoff: int = 0
    #: Sequence being timed and its send instant, for RTT sampling.
    rtt_seq: Optional[int] = None
    rtt_sent_at: int = 0

    # ---- accumulated event flags (written by the event handler) ----
    timeout_pending: bool = False
    fin_received: bool = False
    rst_received: bool = False
    syn_received: bool = False
    ack_pending: bool = False
    #: Application asked to close (FIN should be sent after ``req``).
    close_requested: bool = False
    fin_sent: bool = False
    fin_acked: bool = False

    # ---- engine bookkeeping ----
    mss: int = DEFAULT_MSS
    send_buf: int = DEFAULT_BUFFER_BYTES
    #: Set by the scheduler to request eviction; honoured by the evict
    #: checker after processing (§4.3.2).
    evict_flag: bool = False
    #: Instant (ps) of last activity, for coldest-flow selection.
    last_active: int = 0

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

        Every field comes from ``self``, so the 41-field constructor is
        not run only to have its defaults overwritten.
        """
        copy = Tcb.__new__(Tcb)
        copy.__dict__ = self.__dict__.copy()
        copy.cc = dict(self.cc)
        copy.sacked = list(self.sacked)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tcb flow={self.flow_id} {self.state.value} req={self.req} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt} "
            f"cwnd={self.cwnd}>"
        )
