"""TCP events: the unit of work flowing through FtEngine.

The control path processes three types of events — user requests,
received packets, and timeouts (§4.1.2).  Events carry *cumulative
pointers* rather than deltas (the F4T library sends the pointer itself,
e.g. 1300, not the 300 B length, §4.2.1), which is what makes them
accumulable by overwriting and coalescible in the scheduler (§4.4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..tcp.seq import seq_ge, seq_max


class EventKind(enum.Enum):
    USER_REQ = "user_req"  # send()/recv()/connect()/close() from the host
    RX_PACKET = "rx_packet"  # pre-processed by the RX parser
    TIMEOUT = "timeout"  # from the timer module


@dataclass
class TcpEvent:
    """One control-path event, already resolved to a flow ID.

    All pointer fields are sequence-space cumulative values; ``None``
    means "this event does not update that field".
    """

    kind: EventKind
    flow_id: int
    #: Send request pointer: app asked to transmit bytes up to here.
    req: Optional[int] = None
    #: Receive consumption pointer: app has read bytes up to here.
    rcv_user: Optional[int] = None
    #: Latest cumulative ACK from the peer.
    ack: Optional[int] = None
    #: Latest peer-advertised window (bytes, already de-scaled).
    wnd: Optional[int] = None
    #: Reassembled in-order receive pointer from the RX parser.
    rcv_nxt: Optional[int] = None
    #: Duplicate-ACK increment (the one true RMW; counted immediately).
    dup_incr: int = 0
    #: Selective-acknowledgment blocks carried on the packet (RFC 2018).
    #: The latest blocks describe the receiver's current out-of-order
    #: holdings, so overwrite accumulation is lossless.
    sack_blocks: Optional[List[Tuple[int, int]]] = None
    #: Occurrence flags — accumulate by OR.
    fin: bool = False
    syn: bool = False
    rst: bool = False
    timeout: bool = False
    #: The parser accepted payload, so an ACK must go out.
    ack_needed: bool = False
    #: Application requested connection setup / teardown.
    connect: bool = False
    close: bool = False
    #: Peer's initial sequence number (valid with ``syn``).
    irs: Optional[int] = None
    #: Negotiated MSS carried on SYN options.
    mss: Optional[int] = None
    #: Event creation instant in ps (for RTT sampling and stats).
    timestamp: int = 0
    #: True when this RX event is eligible for coalescing: in-order, no
    #: drops/reordering observed by the parser (GRO-like rule, §4.4.1).
    coalescible: bool = True

    def information_preserving_merge(self, later: "TcpEvent") -> bool:
        """Coalesce ``later`` (same flow, arrived after) into self.

        Returns False — refusing the merge — whenever any information
        would be lost (duplicate-ACK counts, occurrence of SYN on a
        non-SYN, parser-flagged non-coalescible packets).  Mirrors the
        scheduler rule: "coalesce only if no information is lost"
        (§4.4.1).
        """
        if later.flow_id != self.flow_id:
            return False
        if later.dup_incr or self.dup_incr:
            return False  # counts cannot be overwritten
        if not later.coalescible or not self.coalescible:
            return False
        # Cumulative pointers: keep the later (larger) value.
        for attr in ("req", "rcv_user", "ack", "rcv_nxt"):
            new = getattr(later, attr)
            if new is not None:
                old = getattr(self, attr)
                setattr(self, attr, new if old is None else seq_max(old, new))
        if later.wnd is not None:
            self.wnd = later.wnd
        if later.sack_blocks is not None:
            self.sack_blocks = later.sack_blocks
        if later.irs is not None:
            self.irs = later.irs
        if later.mss is not None:
            self.mss = later.mss
        # Occurrence flags accumulate by OR.
        self.fin |= later.fin
        self.syn |= later.syn
        self.rst |= later.rst
        self.timeout |= later.timeout
        self.ack_needed |= later.ack_needed
        self.connect |= later.connect
        self.close |= later.close
        self.timestamp = max(self.timestamp, later.timestamp)
        return True


def user_send_event(flow_id: int, req_pointer: int, now_ps: int) -> TcpEvent:
    """send(): the library transmits the new request *pointer* (§4.2.1)."""
    return TcpEvent(
        EventKind.USER_REQ, flow_id, req=req_pointer, timestamp=now_ps
    )


def user_recv_event(flow_id: int, rcv_user: int, now_ps: int) -> TcpEvent:
    """recv(): consumption pointer update so the window can reopen."""
    return TcpEvent(
        EventKind.USER_REQ, flow_id, rcv_user=rcv_user, timestamp=now_ps
    )


def timeout_event(flow_id: int, now_ps: int) -> TcpEvent:
    return TcpEvent(EventKind.TIMEOUT, flow_id, timeout=True, timestamp=now_ps)
