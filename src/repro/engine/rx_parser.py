"""The RX parser: FtEngine's receive data path (§4.1.2).

For each received packet the parser:

1. retrieves the flow ID from the cuckoo hash table keyed by the
   4-tuple (source/destination IP and port);
2. DMAs the payload into the TCP data buffer if it fits the receive
   window — in order or not — and drops it otherwise;
3. logically reassembles by tracking out-of-sequence chunk boundaries,
   notifying the application only when data is contiguous;
4. emits a control-path event carrying the packet's transmission state
   (SEQ and ACK), window, and flags for the scheduler to route.

Duplicate-ACK detection also lives here: the parser remembers the last
cumulative ACK per flow and marks repeats, producing the ``dup_incr``
that the event handler counts in a single cycle (§4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..tcp.cuckoo import CuckooHashTable
from ..tcp.reassembly import ReassemblyBuffer
from ..tcp.segment import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, FlowKey, TcpSegment
from ..tcp.seq import seq_add, seq_gt
from ..tcp.tcb import DEFAULT_BUFFER_BYTES
from .events import EventKind, TcpEvent

#: Flow-table slots: 65,536 flows (the paper's 64 K) sit at load 0.25.
#: A 2-way cuckoo table with one slot per bucket stops near load 0.5,
#: so half of this would refuse flows short of 64 K.
FLOW_TABLE_SLOTS = 262_144


class RxFlowState:
    """Parser-side per-flow receive state (the out-of-sequence store)."""

    __slots__ = (
        "reassembly", "last_ack_seen", "last_wnd_seen", "fin_seq",
        "in_order_streak", "peer_wscale",
    )

    def __init__(self, reassembly: ReassemblyBuffer) -> None:
        self.reassembly = reassembly
        self.last_ack_seen: Optional[int] = None
        self.last_wnd_seen: Optional[int] = None
        #: Sequence number of a FIN seen out of order, pending reassembly.
        self.fin_seq: Optional[int] = None
        self.in_order_streak = 0
        #: Peer's negotiated window-scale shift (RFC 7323), from its SYN.
        self.peer_wscale = 0


@dataclass
class RxNotification:
    """'Received data pointer' command to the software (§4.1.1)."""

    flow_id: int
    readable_pointer: int  # rcv_nxt after reassembly
    eof: bool = False


class RxParser:
    """Parses segments, reassembles payload, and emits control events."""

    def __init__(
        self,
        passive_open: Optional[Callable[[TcpSegment], Optional[int]]] = None,
        recv_buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        self.flow_table: CuckooHashTable[FlowKey, int] = CuckooHashTable(
            FLOW_TABLE_SLOTS
        )
        self.rx_states: Dict[int, RxFlowState] = {}
        self.passive_open = passive_open
        self.recv_buffer_bytes = recv_buffer_bytes

        self.packets_parsed = 0
        self.packets_dropped_no_flow = 0
        self.dup_acks_detected = 0
        self.out_of_order_packets = 0
        self.notifications: List[RxNotification] = []

    # -------------------------------------------------------- flow set-up
    def register_flow(self, key: FlowKey, flow_id: int, rcv_nxt: int) -> None:
        """Install a flow in the lookup table and create its RX state."""
        self.flow_table.insert(key, flow_id)
        self.rx_states[flow_id] = RxFlowState(
            ReassemblyBuffer(rcv_nxt, self.recv_buffer_bytes)
        )

    def set_initial_rcv_nxt(self, flow_id: int, rcv_nxt: int) -> None:
        """Re-anchor the reassembly origin once the peer's ISN is known."""
        state = self.rx_states[flow_id]
        state.reassembly = ReassemblyBuffer(rcv_nxt, self.recv_buffer_bytes)

    def deregister_flow(self, key: FlowKey, flow_id: int) -> None:
        self.flow_table.remove(key)
        self.rx_states.pop(flow_id, None)

    def lookup(self, key: FlowKey) -> Optional[int]:
        return self.flow_table.get(key)

    # ------------------------------------------------------------- parsing
    def parse(self, segment: TcpSegment, now_ps: int) -> Optional[TcpEvent]:
        """Process one received segment, arrived at ``now_ps``; returns
        the control-path event.

        The receiver's view of the 4-tuple is the reverse of the
        sender's: the lookup key is built from the segment's
        destination as source, with no ``flow_key.reversed()`` round
        trip, and the flags are decoded once.
        """
        self.packets_parsed += 1
        flags = segment.flags
        syn = flags & FLAG_SYN
        fin = flags & FLAG_FIN
        flow_id = self.flow_table.get(
            FlowKey(segment.dst_ip, segment.dst_port, segment.src_ip, segment.src_port)
        )
        if flow_id is None:
            if syn and not flags & FLAG_ACK and self.passive_open is not None:
                flow_id = self.passive_open(segment)
            if flow_id is None:
                self.packets_dropped_no_flow += 1
                return None

        state = self.rx_states[flow_id]
        event = TcpEvent(EventKind.RX_PACKET, flow_id, timestamp=now_ps)

        if flags & FLAG_RST:
            event.rst = True
            event.coalescible = False
            return event

        if syn:
            options = segment.options
            event.syn = True
            event.irs = segment.seq
            event.coalescible = False
            if options.mss is not None:
                event.mss = options.mss
            # Data reception starts after the SYN's sequence number.
            self.set_initial_rcv_nxt(flow_id, seq_add(segment.seq, 1))
            # RFC 7323: remember the peer's window-scale shift; every
            # later segment's 16-bit window is multiplied back up.
            if options.window_scale is not None:
                state.peer_wscale = options.window_scale
            event.wnd = segment.window  # SYN windows are never scaled

        payload = segment.payload
        if flags & FLAG_ACK:
            ack = segment.ack
            window = segment.window
            if (
                ack == state.last_ack_seen
                and not payload
                and not syn
                and not fin
                and window == state.last_wnd_seen
            ):
                # Same cumulative ACK, no data, no window change: dup.
                event.dup_incr = 1
                event.coalescible = False
                self.dup_acks_detected += 1
            else:
                event.ack = ack
            state.last_ack_seen = ack
            state.last_wnd_seen = window
            # De-scale (SYN windows are never scaled, RFC 7323).
            event.wnd = window if syn else window << state.peer_wscale
            if segment.options.sack_blocks:
                event.sack_blocks = list(segment.options.sack_blocks)

        if payload:
            reasm = state.reassembly
            in_order = segment.seq == reasm.rcv_nxt
            accepted = reasm.offer(segment.seq, payload)
            if not in_order:
                # Out-of-order: not coalescible (GRO rule, §4.4.1), and
                # an immediate (duplicate) ACK must go out so the sender
                # can fast-retransmit.
                self.out_of_order_packets += 1
                event.coalescible = False
                state.in_order_streak = 0
            else:
                state.in_order_streak += 1
            event.ack_needed = True
            if accepted:
                if self._check_pending_fin(state):
                    # An earlier out-of-order FIN is now in order.
                    event.fin = True
                    self.notifications.append(
                        RxNotification(flow_id, reasm.rcv_nxt, eof=True)
                    )
                event.rcv_nxt = reasm.rcv_nxt
                if reasm.readable:
                    self.notifications.append(
                        RxNotification(flow_id, reasm.rcv_nxt)
                    )

        if fin:
            fin_seq = seq_add(segment.seq, len(payload))
            if seq_gt(state.reassembly.rcv_nxt, fin_seq):
                # Retransmitted FIN: our ACK was lost, re-ACK it.
                event.ack_needed = True
            else:
                state.fin_seq = fin_seq
                if self._check_pending_fin(state):
                    event.fin = True
                    event.rcv_nxt = state.reassembly.rcv_nxt
                    event.ack_needed = True
                    self.notifications.append(
                        RxNotification(
                            flow_id, state.reassembly.rcv_nxt, eof=True
                        )
                    )
            event.coalescible = False

        # A pure window-update / keep-alive still needs its state routed.
        return event

    def _check_pending_fin(self, state: RxFlowState) -> bool:
        """Consume a pending FIN once reassembly reaches it."""
        if state.fin_seq is not None and state.reassembly.rcv_nxt == state.fin_seq:
            # FIN occupies one sequence number.
            state.reassembly.rcv_nxt = seq_add(state.fin_seq, 1)
            state.fin_seq = None
            return True
        return False

    def drain_notifications(self) -> List[RxNotification]:
        notes, self.notifications = self.notifications, []
        return notes
