"""The event handler and event table: accumulate events without processing.

FPC avoids RMW stalls by *not* processing events on arrival.  The event
handler writes each event's information into a per-flow event-table entry
by overwriting cumulative pointers and OR-ing occurrence flags (§4.2.1).
Because an increased pointer subsumes the previous one, any number of
events accumulates in fixed-size memory with no information loss.

The event table is one half of the dual-memory scheme (§4.2.3): it is
written only by the event handler, while the TCB table is written only by
the FPU — so the two writers can never clobber each other.  A valid bit
per field lets the TCB manager construct the up-to-date TCB by overlaying
valid event fields onto the (possibly stale) TCB-table entry.
"""

from __future__ import annotations

from ..tcp.seq import seq_max
from ..tcp.tcb import Tcb
from .events import TcpEvent

# Valid-bit positions, one per event-table field (§4.2.3).
V_REQ = 1 << 0
V_RCV_USER = 1 << 1
V_ACK = 1 << 2
V_WND = 1 << 3
V_RCV_NXT = 1 << 4
V_FLAGS = 1 << 5
V_DUP = 1 << 6
V_IRS = 1 << 7
V_MSS = 1 << 8
V_SACK = 1 << 9

#: Bit -> field name, for the race sanitizer's findings (repro.check).
VALID_BIT_NAMES = {
    V_REQ: "req", V_RCV_USER: "rcv_user", V_ACK: "ack", V_WND: "wnd",
    V_RCV_NXT: "rcv_nxt", V_FLAGS: "flags", V_DUP: "dup", V_IRS: "irs",
    V_MSS: "mss", V_SACK: "sack",
}


def valid_bit_names(bits: int) -> str:
    """Human-readable field list for a valid-bit mask (``'ack|wnd'``)."""
    names = [name for bit, name in VALID_BIT_NAMES.items() if bits & bit]
    return "|".join(names) if names else "none"


class EventEntry:
    """One flow's accumulated, not-yet-processed event information.

    Slotted, like the TCB: one entry per flow in SRAM or DRAM.
    """

    __slots__ = (
        "valid", "req", "rcv_user", "ack", "wnd", "rcv_nxt", "dup_pending",
        "irs", "mss", "sack",
        # occurrence flags (OR-accumulated)
        "fin", "syn", "rst", "timeout", "ack_needed", "connect", "close",
        "last_time",
    )

    def __init__(self) -> None:
        self.valid = 0
        self.req = 0
        self.rcv_user = 0
        self.ack = 0
        self.wnd = 0
        self.rcv_nxt = 0
        self.dup_pending = 0
        self.irs = 0
        self.mss = 0
        self.sack: tuple = ()
        # Occurrence flags (OR-accumulated).
        self.fin = False
        self.syn = False
        self.rst = False
        self.timeout = False
        self.ack_needed = False
        self.connect = False
        self.close = False
        self.last_time = 0

    def clear(self) -> None:
        """Clear all valid bits (step ④ of the §4.2.3 walk-through)."""
        self.valid = 0
        self.dup_pending = 0
        self.fin = self.syn = self.rst = False
        self.timeout = self.ack_needed = False
        self.connect = self.close = False


def accumulate_event(entry: EventEntry, event: TcpEvent) -> EventEntry:
    """Fold ``event`` into ``entry`` by overwrite/OR/increment (§4.2.1).

    This is the core of F4T's stall avoidance: cumulative pointers are
    overwritten (newer subsumes older), occurrence flags are OR-ed, and
    the one true RMW — duplicate-ACK counting — is an increment that
    completes in a single cycle.  Shared by the FPC's event handler and
    the DRAM memory manager, which handles events the same way (§4.3.1).
    """
    if event.req is not None:
        entry.req = event.req if not entry.valid & V_REQ else seq_max(entry.req, event.req)
        entry.valid |= V_REQ
    if event.rcv_user is not None:
        entry.rcv_user = (
            event.rcv_user
            if not entry.valid & V_RCV_USER
            else seq_max(entry.rcv_user, event.rcv_user)
        )
        entry.valid |= V_RCV_USER
    if event.ack is not None:
        entry.ack = event.ack if not entry.valid & V_ACK else seq_max(entry.ack, event.ack)
        entry.valid |= V_ACK
    if event.wnd is not None:
        entry.wnd = event.wnd  # last value is the up-to-date one
        entry.valid |= V_WND
    if event.rcv_nxt is not None:
        entry.rcv_nxt = (
            event.rcv_nxt
            if not entry.valid & V_RCV_NXT
            else seq_max(entry.rcv_nxt, event.rcv_nxt)
        )
        entry.valid |= V_RCV_NXT
    if event.irs is not None:
        entry.irs = event.irs
        entry.valid |= V_IRS
    if event.mss is not None:
        entry.mss = event.mss
        entry.valid |= V_MSS
    if event.sack_blocks is not None:
        entry.sack = tuple(event.sack_blocks)  # latest blocks win
        entry.valid |= V_SACK

    # The single-cycle RMW: duplicate-ACK counting (§4.2.1).
    if event.dup_incr:
        entry.dup_pending += event.dup_incr
        entry.valid |= V_DUP

    # Occurrence flags accumulate by OR.
    if (
        event.fin
        or event.syn
        or event.rst
        or event.timeout
        or event.ack_needed
        or event.connect
        or event.close
    ):
        entry.fin |= event.fin
        entry.syn |= event.syn
        entry.rst |= event.rst
        entry.timeout |= event.timeout
        entry.ack_needed |= event.ack_needed
        entry.connect |= event.connect
        entry.close |= event.close
        entry.valid |= V_FLAGS

    if event.timestamp > entry.last_time:
        entry.last_time = event.timestamp
    return entry


def merge_into_tcb(tcb: Tcb, entry: EventEntry) -> int:
    """Overlay valid event fields onto ``tcb`` and clear the valid bits.

    This is the TCB manager's construction of the up-to-date TCB
    (steps ②–④ of §4.2.3).  Returns the number of pending duplicate
    ACKs that were folded in, which the FPU consumes.
    """
    if entry.valid & V_REQ:
        tcb.req = seq_max(tcb.req, entry.req)
    if entry.valid & V_RCV_USER:
        tcb.rcv_user = seq_max(tcb.rcv_user, entry.rcv_user)
    if entry.valid & V_ACK:
        # snd_una advances in the FPU; here we only record the newest
        # cumulative ACK seen so the FPU can compute the delta.
        tcb.cc["_latest_ack"] = entry.ack
    if entry.valid & V_WND:
        tcb.snd_wnd = entry.wnd
    if entry.valid & V_RCV_NXT:
        tcb.rcv_nxt = seq_max(tcb.rcv_nxt, entry.rcv_nxt)
    if entry.valid & V_IRS:
        tcb.irs = entry.irs
    if entry.valid & V_MSS:
        tcb.mss = min(tcb.mss, entry.mss) if tcb.mss else entry.mss
    if entry.valid & V_SACK:
        tcb.sacked = list(entry.sack)
    dup = entry.dup_pending if entry.valid & V_DUP else 0
    if entry.valid & V_FLAGS:
        tcb.fin_received |= entry.fin
        tcb.syn_received |= entry.syn
        tcb.rst_received |= entry.rst
        tcb.timeout_pending |= entry.timeout
        tcb.ack_pending |= entry.ack_needed
        if entry.connect:
            tcb.cc["_connect_req"] = True
        tcb.close_requested |= entry.close
    if entry.last_time > tcb.last_active:
        tcb.last_active = entry.last_time
    entry.clear()
    return dup
