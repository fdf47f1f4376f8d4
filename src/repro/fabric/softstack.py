"""A functional soft TCP endpoint: the hosts of the switch fabric.

:class:`SoftStack` is the transport under every host of an N-host
fabric (:mod:`repro.fabric.engine`, :mod:`repro.shard`): a
byte-counting reliable stream — handshake, cumulative acks, sliding
window with NewReno-style loss recovery, ECN echo, FIN teardown — whose
NIC-side timing comes entirely from a pluggable
:class:`~repro.fabric.service.ServiceModel` (the backend being
compared).  It exposes the host-facing surface of
:class:`~repro.engine.ftengine.FtEngine` (``listen/connect/accept/
send_data/readable/recv_data/close_flow/flow_state/flows/
host_messages``), so a driver written against one drives the other.

Payload content is not modelled — only byte counts move (the traffic
harness frames requests by size and sends zeros anyway); ``recv_data``
returns zero bytes of the requested length.  Sequence bookkeeping uses
unbounded cumulative byte offsets starting at zero, not 32-bit wrapping
sequence numbers, so ordered comparisons are exact without modular
arithmetic.

All timestamps are integer picoseconds end to end — the same type the
engines keep, so a soft stack and an FtEngine measure time alike
(simlint F4T007/F4T010 cover this package) — and its links are timed
as the engines' :class:`~repro.net.wire.LinkDirection` times theirs;
the only randomness is the seeded jitter on the ECN hold-off.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from ..engine.ftengine import EngineMessage
from ..net.link import PER_PACKET_OVERHEAD
from ..net.wire import derive_seed
from ..sim.component import NEVER
from ..tcp.segment import PORT_COUNT, PORT_MIN, FlowKey, free_flow_key
from ..tcp.state_machine import TcpState
from .service import ServiceModel

#: Where ``connect``'s source ports start: the dynamic range.
_EPHEMERAL_BASE = 49152


# Transport constants shared by every soft backend.
MSS = 1460
SEND_BUFFER = 1 << 18
RECV_BUFFER = 1 << 18
INIT_CWND_SEGMENTS = 10
#: Retransmission timeout floor (int ps); doubles per backoff.
RTO_PS = 50_000_000
#: Handshake (SYN/SYN-ACK) retransmit interval (int ps).
HANDSHAKE_RTO_PS = 50_000_000
#: ECN response hold-off (int ps): after halving on an echoed CE
#: mark, further echoes are ignored for this long (plus a seeded
#: jitter of up to 1/8th), so one congestion round trip maps to one
#: multiplicative decrease rather than a collapse to the floor.
ECN_RECOVERY_PS = 10_000_000


class FabricPacket:
    """One segment on a fabric link; sizes and offsets only, no bytes."""

    __slots__ = (
        "kind", "key", "offset", "ack_to", "payload_bytes", "wire_bytes",
        "window", "ce", "ece",
    )

    def __init__(
        self,
        kind: str,
        key: FlowKey,
        offset: int = 0,
        ack_to: int = 0,
        payload_bytes: int = 0,
        window: int = 0,
        ece: bool = False,
    ) -> None:
        self.kind = kind  # 'syn' | 'synack' | 'data' | 'ack' | 'fin' | 'rst'
        self.key = key            # the connection's: src = opener, both ways
        self.offset = offset      # cumulative byte offset (data/fin)
        self.ack_to = ack_to      # cumulative bytes acked by the sender
        self.payload_bytes = payload_bytes
        self.wire_bytes = payload_bytes + PER_PACKET_OVERHEAD
        self.window = window      # advertised receive window
        self.ce = False           # congestion-experienced (set by switch)
        self.ece = ece            # receiver's CE echo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricPacket({self.kind}, {self.key}, off={self.offset}, "
            f"ack={self.ack_to}, {self.payload_bytes}B)"
        )


#: The reassembly state of every flow with no hole open (see ``ooo``).
_NO_RUNS: Tuple[Tuple[int, int], ...] = ()
#: The initial congestion window: one int every transfer starts on.
_INIT_CWND = INIT_CWND_SEGMENTS * MSS
#: Read once: an attribute read on an enum class costs about eight
#: global reads on CPython 3.11, and ``_park`` runs for most held-open
#: ends.
_ESTABLISHED = TcpState.ESTABLISHED


class _Transfer:
    """What a connection has moved: both directions' sequence, window,
    loss-recovery and FIN state (cumulative byte offsets from 0)."""

    __slots__ = (
        # transmit side
        "app_written", "flow_acked", "next_to_send",
        "cwnd", "ssthresh", "peer_window", "dup_acks", "recover_mark",
        "ecn_hold_until_ps", "rto_backoff",
        "fin_queued", "fin_sent", "fin_acked",
        # receive side
        "contiguous", "delivered", "ooo", "peer_fin_at", "eof_posted",
    )

    def __init__(self) -> None:
        self.app_written = 0
        self.flow_acked = 0
        self.next_to_send = 0
        self.cwnd = _INIT_CWND
        self.ssthresh = SEND_BUFFER
        self.peer_window = RECV_BUFFER
        self.dup_acks = 0
        self.recover_mark = 0
        self.ecn_hold_until_ps = 0
        self.rto_backoff = 0
        self.fin_queued = False
        self.fin_sent = False
        self.fin_acked = False
        self.contiguous = 0
        self.delivered = 0
        #: Sorted disjoint (start, end) runs above ``contiguous``: the
        #: shared ``_NO_RUNS`` until a segment arrives out of order, a
        #: list of this transfer's own while a hole is open.
        self.ooo: Sequence[Tuple[int, int]] = _NO_RUNS
        self.peer_fin_at = -1
        self.eof_posted = False


class _IdleTransfer(_Transfer):
    """The one transfer every flow starts on, shared: defaults only.

    Reading it is reading a fresh transfer; writing it raises, so a
    write path that forgot to give its flow its own :class:`_Transfer`
    fails at once instead of moving every idle flow at the same time.
    """

    __slots__ = ()

    def __init__(self) -> None:
        fresh = _Transfer()
        for name in _Transfer.__slots__:
            object.__setattr__(self, name, getattr(fresh, name))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"{name}: the shared idle transfer is read-only; the flow "
            f"takes its own _Transfer before its first write"
        )


_IDLE = _IdleTransfer()


class _SoftFlow:
    """One end of a connection: identity, state and timers, plus ``x``,
    what it has moved — the shared :data:`_IDLE` until its first
    transfer.

    ``wire_key`` is the connection's one key, src = opener: the object
    ``connect`` made, which every segment of the connection carries and
    both ends hold.  ``key`` reads it in this end's view (src = this
    host), as :class:`~repro.engine.ftengine.FtEngine`'s flow records
    do; at the opener's end the two are the same tuple.

    Most held-open connections never move a byte, and their ends do not
    keep this record: an end that is ESTABLISHED, idle, has no deadline
    and no timer entry, and sits on the slot its flow id names is
    *parked* (:meth:`SoftStack._park`) once its last timer entry leaves
    the heap.  It is then only its two table entries — ``flows[flow_id]``
    holds ``wire_key``, ``_by_key[wire_key]`` the flow id — and a write
    (a segment, ``send_data``, ``close_flow``) rebuilds the record
    exactly (:meth:`SoftStack._unpark`).
    """

    __slots__ = (
        "flow_id", "wire_key", "slot", "state",
        "hs_deadline_ps", "rto_deadline_ps", "timer_armed_ps", "x",
    )

    def __init__(
        self, flow_id: int, wire_key: FlowKey, slot: int, state: TcpState,
    ) -> None:
        self.flow_id = flow_id
        self.wire_key = wire_key
        self.slot = slot
        self.state = state
        self.hs_deadline_ps = 0
        self.rto_deadline_ps = 0          # 0 = timer off
        self.timer_armed_ps = 0           # earliest heap entry, 0 = none
        #: Every write path starts ``x = flow.x; if x is _IDLE: x =
        #: flow.x = _Transfer()``; paths that only write after one of
        #: those (an RTO, a retransmission, ``recv_data``) go through ``x``.
        self.x: _Transfer = _IDLE

    @property
    def key(self) -> FlowKey:
        return self.wire_key


def _deadline_ps(flow: _SoftFlow) -> int:
    """The earlier of a flow's handshake and retransmit deadlines; 0 = none."""
    hs, rto = flow.hs_deadline_ps, flow.rto_deadline_ps
    if hs and rto:
        return hs if hs < rto else rto
    return hs or rto


class _PassiveFlow(_SoftFlow):
    """The end a SYN opened: it holds the opener's key and reverses it
    only when asked (its ``key.src_port`` is the listen port)."""

    __slots__ = ()

    @property
    def key(self) -> FlowKey:
        return self.wire_key.reversed()


class SoftStack:
    """One host's soft offload engine: transport + service model.

    Its loop's owner hands it a port and the loop's :class:`TimerHeap`
    alike; ``host`` is its index on both."""

    def __init__(
        self,
        ip: int,
        port,
        service: ServiceModel,
        timers: TimerHeap,
        host: int,
        name: str = "soft",
        seed: int = 0,
    ) -> None:
        self.ip = ip
        self.port = port
        self.service = service
        self.timers: TimerHeap = timers
        self.host = host
        timers.stacks[host] = self
        #: The timer entries ``timers.pop_due`` handed over for the
        #: next ``tick``, in (deadline, flow id) order.
        self._due_timers: List[Tuple[int, int, int]] = []
        self.name = name
        self.now_ps = 0  # the driving loop sets this before tick()
        #: The only RNG: seeded jitter on the ECN recovery hold-off,
        #: derived per host name so every stack draws its own stream.
        self._ecn_rng = random.Random(derive_seed(seed, f"ecn/{name}"))
        #: flow id -> its end: the record, or, parked, the wire key.
        self.flows: Dict[int, Union[_SoftFlow, FlowKey]] = {}
        self.host_messages: Deque[EngineMessage] = deque()
        #: Bumped on every host-queue mutation, mirroring
        #: ``FtEngine.msg_epoch`` so pollers can skip an unchanged queue.
        self.msg_epoch = 0
        self._listening: Set[int] = set()
        self._accept_queues: Dict[int, Deque[int]] = {}
        #: Each connection's one key (src = opener) -> this end of it:
        #: the record, or, parked, the flow id.
        self._by_key: Dict[FlowKey, Union[_SoftFlow, int]] = {}
        self._next_flow_id = 0
        self._next_port = _EPHEMERAL_BASE
        self._free_slots: List[int] = []
        self._next_slot = 0
        # Counters surfaced into fabric results and obs samples.
        self.packets_sent = 0
        self.packets_received = 0
        self.retransmits = 0
        self.timeouts = 0
        self.ecn_echoes = 0
        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None
        self.trace_name = name

    # ------------------------------------------------------------- plumbing
    def _post(self, kind: str, flow_id: int, value: int = 0) -> None:
        self.host_messages.append(EngineMessage(kind, flow_id, value))
        self.msg_epoch += 1

    def _alloc_slot(self, flow_id: int) -> int:
        """The lowest freed slot, else the next fresh one — as the flow
        id's own int when the two are equal, so a flow on a fresh slot
        pins one int, not two."""
        if self._free_slots:
            return heapq.heappop(self._free_slots)
        slot = self._next_slot
        self._next_slot = slot + 1
        return flow_id if slot == flow_id else slot

    def _emit(self, packet: FabricPacket, at_ps: int) -> None:
        self.port.send(packet, at_ps)
        self.packets_sent += 1

    def _send_segment(self, flow: _SoftFlow, packet: FabricPacket) -> int:
        """Run one outbound segment through the service model; returns
        the instant it reached the wire."""
        at = self.service.tx_ready_ps(
            self.now_ps, flow.slot, packet.payload_bytes
        )
        self._emit(packet, at)
        if self.trace is not None:
            self.trace.emit(
                at, "fabric", self.trace_name, f"tx-{packet.kind}",
                flow.flow_id, f"off={packet.offset} n={packet.payload_bytes}",
            )
        return at

    def _rwnd(self, x: _Transfer) -> int:
        used = x.contiguous - x.delivered
        if not used:
            return RECV_BUFFER  # the module's one int, not a new one
        free = RECV_BUFFER - used
        return free if free > 0 else 0

    def _arm(self, flow: _SoftFlow) -> None:
        """Index the flow's earliest live deadline in the loop's timer heap.

        Lazy discipline: at most one *tracked* entry per flow (its
        earliest pushed instant, ``timer_armed_ps``).  Re-arming later
        than the tracked entry pushes nothing — the stale entry pops at
        its old instant, finds nothing due, and re-indexes at the true
        deadline.  So arming stays O(log n) and the heap stays
        proportional to the flow count, not the ack count.
        """
        deadline = _deadline_ps(flow)
        if deadline <= 0:
            return
        if flow.timer_armed_ps == 0 or deadline < flow.timer_armed_ps:
            flow.timer_armed_ps = deadline
            self.timers.push(deadline, self.host, flow.flow_id)

    def _park(self, flow: _SoftFlow) -> None:
        """Park ``flow`` if it has nothing to do — ESTABLISHED, never
        moved a byte, no deadline, no timer entry left, on the slot its
        flow id names — by dropping its record: its two table entries
        stand for it, ``flows`` holding its wire key and ``_by_key`` its
        flow id."""
        if (
            flow.x is _IDLE
            and flow.state is _ESTABLISHED
            and not flow.timer_armed_ps
            and not (flow.hs_deadline_ps or flow.rto_deadline_ps)
            and flow.slot == flow.flow_id
        ):
            flow_id, key = flow.flow_id, flow.wire_key
            self.flows[flow_id] = key
            self._by_key[key] = flow_id

    def _unpark(self, flow_id: int) -> _SoftFlow:
        """Rebuild a parked end as the record it was: the opener's or
        the passive end by its key's source, slot = flow id, idle, no
        deadline."""
        key = self.flows[flow_id]
        flow_id = self._by_key[key]  # the table's own int, as before
        cls = _SoftFlow if key.src_ip == self.ip else _PassiveFlow
        flow = cls(flow_id, key, flow_id, _ESTABLISHED)
        self.flows[flow_id] = self._by_key[key] = flow
        return flow

    # ----------------------------------------------------- host-facing API
    def listen(self, port: int) -> Deque[int]:
        """Accept connections on ``port``; returns its accept queue (the
        flow ids :meth:`accept` hands out, in handshake order)."""
        self._listening.add(port)
        return self._accept_queues.setdefault(port, deque())

    def connect(self, dst_ip: int, dst_port: int) -> int:
        if dst_ip == self.ip:
            # Both ends would hold one key in one ``_by_key``, and the
            # switch could not tell the two directions apart.
            raise ValueError(
                f"stack {self.name}: connect to its own address is not "
                f"supported"
            )
        key, self._next_port = free_flow_key(
            self.ip, dst_ip, dst_port, self._next_port, self._by_key,
            f"stack {self.name}", PORT_MIN, PORT_COUNT,
        )
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        flow = _SoftFlow(
            flow_id, key, self._alloc_slot(flow_id), TcpState.SYN_SENT,
        )
        self.flows[flow_id] = flow
        self._by_key[key] = flow
        at = self._send_segment(flow, FabricPacket("syn", key))
        flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
        self._arm(flow)
        return flow_id

    def accept(self, port: int) -> Optional[int]:
        queue = self._accept_queues.get(port)
        if not queue:
            return None
        return queue.popleft()

    def flow_key(self, flow_id: int) -> Optional[FlowKey]:
        """The flow's key in this end's view (src = this host)."""
        flow = self.flows.get(flow_id)
        if type(flow) is not FlowKey:
            return None if flow is None else flow.key
        return flow if flow.src_ip == self.ip else flow.reversed()

    def flow_state(self, flow_id: int) -> Optional[TcpState]:
        flow = self.flows.get(flow_id)
        if type(flow) is FlowKey:
            return _ESTABLISHED
        return flow.state if flow is not None else None

    def send_room(self, flow_id: int) -> int:
        """Bytes :meth:`send_data` would accept now."""
        flow = self.flows.get(flow_id)
        if type(flow) is FlowKey:
            return SEND_BUFFER
        if flow is None or flow.x.fin_queued:
            return 0
        return SEND_BUFFER - (flow.x.app_written - flow.x.flow_acked)

    def send_data(self, flow_id: int, data: bytes) -> int:
        accepted = min(len(data), self.send_room(flow_id))
        if accepted <= 0:
            return 0
        flow = self.flows[flow_id]
        if type(flow) is FlowKey:
            flow = self._unpark(flow_id)
        x = flow.x
        if x is _IDLE:
            x = flow.x = _Transfer()
        x.app_written += accepted
        if flow.state is TcpState.ESTABLISHED:
            self._pump_flow(flow)
        return accepted

    def readable(self, flow_id: int) -> int:
        flow = self.flows.get(flow_id)
        if flow is None or type(flow) is FlowKey:
            return 0
        return flow.x.contiguous - flow.x.delivered

    def recv_data(self, flow_id: int, nbytes: int) -> bytes:
        flow = self.flows.get(flow_id)
        if flow is None or type(flow) is FlowKey:
            return b""
        x = flow.x  # bytes to take means a data arrival gave it its own
        take = min(nbytes, x.contiguous - x.delivered)
        if take <= 0:
            return b""
        x.delivered += take
        return bytes(take)

    def close_flow(self, flow_id: int) -> None:
        flow = self.flows.get(flow_id)
        if type(flow) is FlowKey:
            flow = self._unpark(flow_id)
        elif flow is None or flow.x.fin_queued:
            return
        x = flow.x
        if x is _IDLE:
            x = flow.x = _Transfer()
        x.fin_queued = True
        if flow.state is TcpState.ESTABLISHED:
            self._pump_flow(flow)

    def drain_host_messages(self) -> List[EngineMessage]:
        if not self.host_messages:
            return []
        drained = list(self.host_messages)
        self.host_messages.clear()
        self.msg_epoch += 1
        return drained

    # ------------------------------------------------------------ the tick
    def tick(self) -> None:
        """Receive what has arrived, then act on the timer entries the
        loop handed over for this instant."""
        now = self.now_ps
        for packet in self.port.poll(now):
            self._receive(packet, now)
        if self._due_timers:
            self._expire_timers(now)

    # ------------------------------------------------------- the data path
    def _pump_flow(self, flow: _SoftFlow) -> None:
        """Send whatever the window allows; arm the retransmit timer."""
        x = flow.x
        window = x.cwnd if x.cwnd < x.peer_window else x.peer_window
        sent_any = False
        last_at = 0
        while x.next_to_send < x.app_written:
            flight = x.next_to_send - x.flow_acked
            if flight >= window:
                break
            chunk = min(
                MSS, x.app_written - x.next_to_send,
                window - flight,
            )
            last_at = self._send_segment(
                flow,
                FabricPacket(
                    "data", flow.wire_key, offset=x.next_to_send,
                    payload_bytes=chunk, ack_to=x.contiguous,
                    window=self._rwnd(x),
                ),
            )
            x.next_to_send += chunk
            sent_any = True
        if (
            x.fin_queued
            and not x.fin_sent
            and x.next_to_send == x.app_written
        ):
            last_at = self._send_segment(
                flow, FabricPacket("fin", flow.wire_key, offset=x.app_written)
            )
            x.fin_sent = True
            sent_any = True
        if sent_any and flow.rto_deadline_ps == 0:
            flow.rto_deadline_ps = last_at + (
                RTO_PS << x.rto_backoff
            )
            self._arm(flow)

    def _retransmit_from(self, flow: _SoftFlow, go_back: bool) -> None:
        """Resend from the cumulative ack point (one MSS, or go-back-N)."""
        x = flow.x
        self.retransmits += 1
        if self.trace is not None:
            self.trace.emit(
                self.now_ps, "fabric", self.trace_name, "retx",
                flow.flow_id, f"from={x.flow_acked} gbn={int(go_back)}",
            )
        if go_back:
            x.next_to_send = x.flow_acked
            x.fin_sent = False
            self._pump_flow(flow)
            return
        chunk = min(
            MSS, x.app_written - x.flow_acked
        )
        if chunk > 0:
            self._send_segment(
                flow,
                FabricPacket(
                    "data", flow.wire_key, offset=x.flow_acked,
                    payload_bytes=chunk, ack_to=x.contiguous,
                    window=self._rwnd(x),
                ),
            )
        elif x.fin_sent and not x.fin_acked:
            self._send_segment(
                flow, FabricPacket("fin", flow.wire_key, offset=x.app_written)
            )

    def _expire_timers(self, now: int) -> None:
        """Act on every timer entry handed over for ``now``, live or
        stale; a flow re-arms what is left of its deadlines, or parks."""
        due = self._due_timers
        for deadline, _host, flow_id in due:
            flow = self.flows.get(flow_id)
            if flow is None or type(flow) is FlowKey:
                continue  # gone, or parked: nothing is due
            if flow.timer_armed_ps == deadline:
                flow.timer_armed_ps = 0
            if flow.hs_deadline_ps and now >= flow.hs_deadline_ps:
                if flow.state is TcpState.SYN_SENT:
                    at = self._send_segment(flow, FabricPacket("syn", flow.wire_key))
                    flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
                elif flow.state is TcpState.SYN_RECEIVED:
                    at = self._send_segment(
                        flow, FabricPacket("synack", flow.wire_key)
                    )
                    flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
                else:
                    flow.hs_deadline_ps = 0
            if flow.rto_deadline_ps and now >= flow.rto_deadline_ps:
                # Something outstanding means a transfer of its own.
                x = flow.x
                outstanding = (
                    x.flow_acked < x.next_to_send
                    or (x.fin_sent and not x.fin_acked)
                )
                if not outstanding:
                    flow.rto_deadline_ps = 0
                else:
                    self.timeouts += 1
                    flight = x.next_to_send - x.flow_acked
                    half = flight // 2
                    x.ssthresh = max(half, 2 * MSS)
                    x.cwnd = MSS
                    if x.rto_backoff < 6:
                        x.rto_backoff += 1
                    flow.rto_deadline_ps = now + (
                        RTO_PS << x.rto_backoff
                    )
                    self._retransmit_from(flow, go_back=True)
            self._arm(flow)
            self._park(flow)
        due.clear()

    # ------------------------------------------------------------- receive
    def _receive(self, packet: FabricPacket, now: int) -> None:
        self.packets_received += 1
        kind = packet.kind
        if kind == "syn":
            self._on_syn(packet)
            return
        # Everything else belongs to an existing flow, looked up by the
        # connection's key as it came.
        key = packet.key
        flow = self._by_key.get(key)
        if flow is None:
            # Late segment for a torn-down flow.  A FIN is one
            # retransmitted because our ACK of it was lost: there is no
            # TIME_WAIT to answer it, so re-ACK it from the segment
            # alone (through the service model as slot 0: the flow's
            # own is gone), or its sender retransmits it forever.
            if kind == "fin":
                self._emit(
                    FabricPacket(
                        "ack", key, ack_to=packet.offset + 1,
                        window=RECV_BUFFER,
                    ),
                    self.service.tx_ready_ps(now, 0, 0),
                )
            elif kind == "synack":
                # A SYN that outlived its connection opened a half-open
                # flow at the peer: reset it (the same way, slot 0), or
                # it re-sends its SYN-ACK every handshake timeout.
                self._emit(
                    FabricPacket("rst", key), self.service.tx_ready_ps(now, 0, 0)
                )
            return
        if type(flow) is int:
            flow = self._unpark(flow)
        if self.trace is not None:
            self.trace.emit(
                now, "fabric", self.trace_name, f"rx-{kind}",
                flow.flow_id, f"off={packet.offset} n={packet.payload_bytes}",
            )
        if kind == "synack":
            self._on_synack(flow)
            return
        if kind == "rst":
            # Only a half-open flow is reset; an RST is never answered.
            if flow.state is TcpState.SYN_RECEIVED:
                self._release(flow)
            return
        if flow.state is TcpState.SYN_RECEIVED:
            # Handshake ACK (possibly carrying data): promote + enqueue
            # on the accept queue before normal processing.
            flow.state = TcpState.ESTABLISHED
            flow.hs_deadline_ps = 0
            # Only passive flows are ever SYN_RECEIVED, and theirs is
            # the key of a SYN to a listening port.
            self._accept_queues[flow.wire_key.dst_port].append(flow.flow_id)
            self._post("accepted", flow.flow_id)
        if kind == "data":
            self._on_data(flow, packet)
        elif kind == "ack":
            self._on_ack(flow, packet, now)
        elif kind == "fin":
            self._on_fin(flow, packet)
        self._maybe_teardown(flow)

    def _on_syn(self, packet: FabricPacket) -> None:
        key = packet.key  # the opener's, kept as it came
        if key.dst_port not in self._listening:
            return
        flow = self._by_key.get(key)  # not None: a duplicate SYN, re-answer
        if type(flow) is int:
            flow = self._unpark(flow)
        elif flow is None:
            flow_id = self._next_flow_id
            self._next_flow_id += 1
            flow = _PassiveFlow(
                flow_id, key, self._alloc_slot(flow_id),
                TcpState.SYN_RECEIVED,
            )
            self.flows[flow_id] = flow
            self._by_key[key] = flow
        at = self._send_segment(flow, FabricPacket("synack", flow.wire_key))
        flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
        self._arm(flow)

    def _on_synack(self, flow: _SoftFlow) -> None:
        if flow.state is not TcpState.SYN_SENT:
            return  # duplicate SYN-ACK
        flow.state = TcpState.ESTABLISHED
        flow.hs_deadline_ps = 0
        self._post("connected", flow.flow_id)
        self._send_segment(
            flow,
            FabricPacket(
                "ack", flow.wire_key, ack_to=0, window=self._rwnd(flow.x)
            ),
        )
        self._pump_flow(flow)

    def _on_data(self, flow: _SoftFlow, packet: FabricPacket) -> None:
        x = flow.x
        if x is _IDLE:
            x = flow.x = _Transfer()
        start, end = packet.offset, packet.offset + packet.payload_bytes
        before = x.contiguous
        if start <= x.contiguous:
            if end > x.contiguous:
                x.contiguous = end
            if x.ooo:
                # Absorb any out-of-order runs now made contiguous.
                merged: List[Tuple[int, int]] = []
                for lo, hi in x.ooo:
                    if lo <= x.contiguous:
                        if hi > x.contiguous:
                            x.contiguous = hi
                    else:
                        merged.append((lo, hi))
                x.ooo = merged or _NO_RUNS
        else:
            self._insert_ooo(x, start, end)
        if x.contiguous > before:
            self._post("data", flow.flow_id, x.contiguous - before)
        self._ack_now(flow, x, packet.ce)

    def _insert_ooo(self, x: _Transfer, start: int, end: int) -> None:
        runs = [*x.ooo, (start, end)]  # never the shared empty itself
        runs.sort()
        merged = [runs[0]]
        for lo, hi in runs[1:]:
            last_lo, last_hi = merged[-1]
            if lo <= last_hi:
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        x.ooo = merged

    def _ack_now(self, flow: _SoftFlow, x: _Transfer, ece: bool) -> None:
        """ACK what has arrived, echoing ``ece`` (the arrival's CE)."""
        ack_to = x.contiguous
        if x.peer_fin_at >= 0 and x.contiguous >= x.peer_fin_at:
            ack_to = x.peer_fin_at + 1  # the FIN's virtual byte
        self._send_segment(
            flow,
            FabricPacket(
                "ack", flow.wire_key, ack_to=ack_to, window=self._rwnd(x),
                ece=ece,
            ),
        )

    def _on_ack(self, flow: _SoftFlow, packet: FabricPacket, now: int) -> None:
        x = flow.x
        window = max(packet.window, MSS)
        if x is _IDLE:
            if window == x.peer_window and not packet.ece and not packet.ack_to:
                return  # the handshake's ACK: nothing moved
            x = flow.x = _Transfer()
        x.peer_window = window
        if packet.ece and now >= x.ecn_hold_until_ps:
            # One multiplicative decrease per congestion round trip:
            # halve, then hold off for a seeded recovery interval so a
            # burst of echoed marks maps to one response, and the
            # jitter desynchronizes the senders of an incast instead
            # of letting them all re-open their windows in lockstep.
            half = x.cwnd // 2
            x.cwnd = max(MSS, half)
            x.ssthresh = x.cwnd
            hold = ECN_RECOVERY_PS
            hold += self._ecn_rng.randrange(hold // 8 + 1)
            x.ecn_hold_until_ps = now + hold
            self.ecn_echoes += 1
        # Only our FIN's virtual byte acks past ``app_written``; a
        # go-back-N resend may have cleared ``fin_sent`` since it left.
        fin_point = x.app_written + 1 if x.fin_queued else -1
        if packet.ack_to == fin_point and not x.fin_acked:
            x.fin_acked = True
            x.flow_acked = x.app_written
            flow.rto_deadline_ps = 0
            return
        advanced = packet.ack_to - x.flow_acked
        if advanced > 0:
            x.flow_acked = packet.ack_to
            x.dup_acks = 0
            x.rto_backoff = 0
            outstanding = (
                x.flow_acked < x.next_to_send
                or (x.fin_sent and not x.fin_acked)
            )
            flow.rto_deadline_ps = (
                now + RTO_PS if outstanding else 0
            )
            if outstanding:
                self._arm(flow)
            if x.next_to_send < x.flow_acked:
                x.next_to_send = x.flow_acked
            # Congestion window growth: slow start, then ~MSS per RTT.
            if x.cwnd < x.ssthresh:
                x.cwnd += min(advanced, MSS)
            else:
                x.cwnd += max(1, MSS * MSS // x.cwnd)
            if x.cwnd > SEND_BUFFER:
                x.cwnd = SEND_BUFFER
            self._post("acked", flow.flow_id, advanced)
            self._pump_flow(flow)
        elif (
            packet.ack_to == x.flow_acked
            and x.next_to_send > x.flow_acked
        ):
            x.dup_acks += 1
            if x.dup_acks == 3 and x.flow_acked >= x.recover_mark:
                half = (x.next_to_send - x.flow_acked) // 2
                x.ssthresh = max(half, 2 * MSS)
                x.cwnd = x.ssthresh
                x.recover_mark = x.next_to_send
                self._retransmit_from(flow, go_back=False)

    def _on_fin(self, flow: _SoftFlow, packet: FabricPacket) -> None:
        x = flow.x
        if x is _IDLE:
            x = flow.x = _Transfer()
        x.peer_fin_at = packet.offset
        self._ack_now(flow, x, False)

    def _maybe_teardown(self, flow: _SoftFlow) -> None:
        x = flow.x
        peer_done = x.peer_fin_at >= 0 and x.contiguous >= x.peer_fin_at
        if peer_done and not x.eof_posted:
            x.eof_posted = True
            self._post("eof", flow.flow_id)
        if peer_done and x.fin_acked:
            self._release(flow)
            self._post("closed", flow.flow_id)
            if self.trace is not None:
                self.trace.emit(
                    self.now_ps, "fabric", self.trace_name, "closed",
                    flow.flow_id, "teardown complete",
                )

    def _release(self, flow: _SoftFlow) -> None:
        """Forget a flow: its id, its key and its slot."""
        flow.state = TcpState.CLOSED
        del self.flows[flow.flow_id]
        self._by_key.pop(flow.wire_key, None)
        heapq.heappush(self._free_slots, flow.slot)


class TimerHeap:
    """The timers of every stack of one loop: a ``(deadline_ps, host,
    flow_id)`` min-heap.

    The loop's owner (``FabricLoadEngine``, ``CellSim``, a two-host
    rig) builds one and hands it to each stack it builds; ``_arm``
    pushes here.  Entries are invalidated lazily: an entry is live while
    it equals its flow's deadline, anything else pops as stale.  So
    "who has a timer entry to pop now" and "when is the next timer
    instant" cost what is due, not one visit per host or per flow.
    """

    def __init__(self) -> None:
        #: host -> stack, in the order the stacks were built.
        self.stacks: Dict[int, SoftStack] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self.pushes = 0
        #: Entries ``pop_due`` handed to their host.
        self.live_pops = 0
        #: Entries ``next_deadline_ps`` dropped as superseded.
        self.stale_pops = 0

    def push(self, deadline_ps: int, host: int, flow_id: int) -> None:
        self.pushes += 1
        heapq.heappush(self._heap, (deadline_ps, host, flow_id))

    def pop_due(self, now_ps: int, due: Set[int]) -> None:
        """Pop every entry due by ``now_ps``, hand each host its own in
        (deadline, flow id) order and add the host to ``due``: its next
        ``tick`` acts on them."""
        heap, stacks = self._heap, self.stacks
        while heap and heap[0][0] <= now_ps:
            entry = heapq.heappop(heap)
            host = entry[1]
            stacks[host]._due_timers.append(entry)
            due.add(host)
            self.live_pops += 1

    def next_deadline_ps(self, bound: Optional[int]) -> Optional[int]:
        """The earliest live deadline under ``bound`` (None: any), else
        ``bound``.  Every stale entry above it is dropped on the way,
        and its flow re-indexed at its true deadline, if it has one, or
        else parked, if it can be."""
        heap, stacks = self._heap, self.stacks
        while heap and (bound is None or heap[0][0] < bound):
            deadline, host, flow_id = heap[0]
            stack = stacks[host]
            flow = stack.flows.get(flow_id)
            if type(flow) is FlowKey:
                flow = None  # parked: no deadline
            actual = 0 if flow is None else _deadline_ps(flow)
            if actual == deadline:
                return deadline
            heapq.heappop(heap)
            self.stale_pops += 1
            if flow is not None:
                if flow.timer_armed_ps == deadline:
                    flow.timer_armed_ps = 0
                if actual:
                    stack._arm(flow)
                else:
                    stack._park(flow)
        return bound


def run_event_loop(
    clock,
    timers: TimerHeap,
    network,
    deadline_ps: int,
    until: Callable[[], bool],
    next_call_ps: Callable[[], int],
) -> bool:
    """The one discrete-event loop every set of soft-stack hosts runs on.

    ``clock`` is the owner (``FabricLoadEngine``) whose integer
    ``time_ps`` this loop advances; predicates and drivers read it
    between events.  ``timers`` is the owner's timer heap, whose
    ``stacks`` are the hosts.  ``network`` (``SwitchFabric``) joins them
    and publishes the next instant a host can see from it:
    ``advance(limit_ps)`` runs the network's own events, in order, up
    to the first delivery or ``limit_ps``, whichever comes first (an
    event at exactly that instant included), and returns the next
    delivery instant; ``due_hosts(now_ps)`` pops the hosts (by index)
    with a delivery due.  The soft stacks do nothing between packet
    arrivals and timer deadlines, so the loop lands only where a host
    can act: an instant ticks — in ascending host order — only the
    stacks with a delivery or a timer entry due, then the network runs
    ahead to the earliest of the pump's declared instant and the
    heap's earliest live deadline (validated first, so one pass
    suffices), never past ``deadline_ps``, and the loop lands at that
    bound or at the next delivery, whichever is earlier.

    ``until`` (the driver's pump) has ``Testbed.run``'s contract in
    picoseconds: asked right after each call, ``next_call_ps`` names
    the instant of the next call (:data:`NEVER`: never by itself; an
    instant already reached: the next picosecond), and ``until`` runs
    there or when a stack ticked at this instant posted a host message
    (moved its ``msg_epoch``; the pump's own drains do not count).
    Every stack's ``now_ps`` is stamped before a call: the driver may
    call into any.

    True when ``until`` held; False on the deadline or a stall (no
    future event could change ``until``; the clock then stops where
    ``network.stall_ps`` says the network's own events did).
    """
    stacks = timers.stacks
    pump_at = 0  # the first instant calls the pump
    while True:
        t = clock.time_ps
        due = network.due_hosts(t)
        timers.pop_due(t, due)
        posted = False
        for host in sorted(due) if len(due) > 1 else due:
            stack = stacks[host]
            epoch = stack.msg_epoch
            stack.now_ps = t
            stack.tick()
            posted = posted or stack.msg_epoch != epoch
        if t >= pump_at or posted:
            for stack in stacks.values():
                stack.now_ps = t
            if until():
                return True
            pump_at = next_call_ps()
            if pump_at <= t:
                pump_at = t + 1
        if t >= deadline_ps:
            return False
        pump_due = t < pump_at < NEVER
        limit = pump_at if pump_due and pump_at < deadline_ps else deadline_ps
        bound = timers.next_deadline_ps(limit)
        following = network.advance(bound)
        if (pump_due or bound < limit) and (following is None or bound < following):
            following = bound  # the pump or a timer acts there
        if following is None:
            if timers.next_deadline_ps(None) is None:
                clock.time_ps = network.stall_ps(t, deadline_ps)
                return False
            following = deadline_ps  # a timer is due at or past it
        clock.time_ps = min(following, deadline_ps)
