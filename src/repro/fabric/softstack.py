"""A functional soft TCP endpoint implementing the backend protocol.

:class:`SoftStack` is the shared transport under the FlexTOE, PnO and
linux_stack backends (and under *every* backend in N-host fabrics): a
byte-counting reliable stream — handshake, cumulative acks, sliding
window with NewReno-style loss recovery, ECN echo, FIN teardown — whose
NIC-side timing comes entirely from a pluggable
:class:`~repro.fabric.service.ServiceModel`.  It exposes the exact
host-facing surface of :class:`~repro.engine.ftengine.FtEngine`
(``listen/connect/accept/send_data/readable/recv_data/close_flow/
flow_state/flows/host_messages``), so :class:`~repro.traffic.engine.
LoadEngine` and the ``repro.apps`` presets drive it unchanged.

Payload content is not modelled — only byte counts move (the traffic
harness frames requests by size and sends zeros anyway); ``recv_data``
returns zero bytes of the requested length.  Sequence bookkeeping uses
unbounded cumulative byte offsets starting at zero, not 32-bit wrapping
sequence numbers, so ordered comparisons are exact without modular
arithmetic.

All timestamps are integer picoseconds end to end — the same type the
engines keep, so a soft stack and an FtEngine measure time alike
(simlint F4T007/F4T010 cover this package) — and the link is the
engines' own :class:`~repro.net.wire.LinkDirection`; the only
randomness is the optional seeded drop impairment on :class:`SoftWire`.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from functools import partial
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..engine.ftengine import EngineMessage
from ..net.link import PER_PACKET_OVERHEAD
from ..net.wire import FaultFn, LinkDirection, WirePort, derive_seed
from ..sim.component import NEVER, seconds_to_ps
from ..tcp.segment import FlowKey, ip_from_string, ip_to_string
from ..tcp.state_machine import TcpState
from .service import ServiceModel

#: Engine-period compatibility constant: ``cycle`` properties below are
#: derived from integer picoseconds at the F4T 250 MHz period.
_PERIOD_PS = 4_000

#: Source ports ``connect`` hands out: from the start of the dynamic
#: range upwards, wrapping inside the unprivileged range.
_EPHEMERAL_BASE = 49152
_PORT_MIN, _PORT_MAX = 1024, 65535
_PORT_COUNT = _PORT_MAX - _PORT_MIN + 1


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
        "kind", "key", "offset", "ack_to", "payload_bytes", "window",
        "ce", "ece",
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
        self.kind = kind          # 'syn' | 'synack' | 'data' | 'ack' | 'fin'
        self.key = key            # sender's view: src = sender
        self.offset = offset      # cumulative byte offset (data/fin)
        self.ack_to = ack_to      # cumulative bytes acked by the sender
        self.payload_bytes = payload_bytes
        self.window = window      # advertised receive window
        self.ce = False           # congestion-experienced (set by switch)
        self.ece = ece            # receiver's CE echo

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + PER_PACKET_OVERHEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricPacket({self.kind}, {self.key}, off={self.offset}, "
            f"ack={self.ack_to}, {self.payload_bytes}B)"
        )


#: The reassembly state of every flow with no hole open (see ``ooo``).
_NO_RUNS: Tuple[Tuple[int, int], ...] = ()


class _SoftFlow:
    """Per-connection state: both transmit and receive directions."""

    __slots__ = (
        "flow_id", "key", "slot", "state",
        # transmit side (cumulative byte offsets from 0)
        "app_written", "flow_acked", "next_to_send",
        "cwnd", "ssthresh", "peer_window", "dup_acks", "recover_mark",
        "ecn_hold_until_ps", "rto_deadline_ps", "rto_backoff",
        "timer_armed_ps",
        "fin_queued", "fin_sent", "fin_acked",
        # receive side
        "contiguous", "delivered", "ooo", "peer_fin_at", "ce_pending",
        "eof_posted",
        # handshake
        "hs_deadline_ps",
    )

    def __init__(
        self, flow_id: int, key: FlowKey, slot: int, state: TcpState,
        init_cwnd: int,
    ) -> None:
        self.flow_id = flow_id
        self.key = key  # a passive flow's src_port is its listen port
        self.slot = slot
        self.state = state
        self.app_written = 0
        self.flow_acked = 0
        self.next_to_send = 0
        self.cwnd = init_cwnd
        self.ssthresh = SEND_BUFFER
        self.peer_window = RECV_BUFFER
        self.dup_acks = 0
        self.recover_mark = 0
        self.ecn_hold_until_ps = 0
        self.rto_deadline_ps = 0          # 0 = timer off
        self.rto_backoff = 0
        self.timer_armed_ps = 0           # earliest heap entry, 0 = none
        self.fin_queued = False
        self.fin_sent = False
        self.fin_acked = False
        self.contiguous = 0
        self.delivered = 0
        #: Sorted disjoint (start, end) runs above ``contiguous``: the
        #: shared ``_NO_RUNS`` until a segment arrives out of order, a
        #: list of this flow's own while a hole is open.
        self.ooo: Sequence[Tuple[int, int]] = _NO_RUNS
        self.peer_fin_at = -1
        self.ce_pending = False
        self.eof_posted = False
        self.hs_deadline_ps = 0


class SoftWire:
    """A duplex point-to-point soft link with optional seeded loss: two
    :class:`~repro.net.wire.LinkDirection` of the 100 GbE link, whose
    ends are :class:`~repro.net.wire.WirePort`."""

    def __init__(self, drop_probability: float = 0.0, seed: int = 0) -> None:
        def data_drops(label: str) -> Optional[FaultFn]:
            # Only data segments are dropped, one draw each: control
            # segments never touch the RNG.
            if drop_probability <= 0:
                return None
            rng = random.Random(derive_seed(seed, label))
            return lambda packet, index: (
                packet.kind == "data" and rng.random() < drop_probability
            )

        self._ab = LinkDirection(drop_fn=data_drops("soft-drop-a2b"))
        self._ba = LinkDirection(drop_fn=data_drops("soft-drop-b2a"))
        self.port_a = WirePort(outbound=self._ab, inbound=self._ba)
        self.port_b = WirePort(outbound=self._ba, inbound=self._ab)

    @property
    def frames_sent(self) -> int:
        return self._ab.frames_sent + self._ba.frames_sent

    @property
    def frames_dropped(self) -> int:
        return self._ab.frames_dropped + self._ba.frames_dropped

    @property
    def bytes_sent(self) -> int:
        return self._ab.bytes_sent + self._ba.bytes_sent

    def next_event_ps(self) -> Optional[int]:
        return min(
            (d._in_flight[0][0] for d in (self._ab, self._ba) if d._in_flight),
            default=None,
        )

    def advance(self, now_ps: int) -> Set[int]:
        """The event loop's network step: a wire has no events of its
        own, so just name the ends (0 = a, 1 = b) with an arrival due."""
        return {
            end
            for end, inbound in enumerate((self._ba, self._ab))
            if inbound._in_flight and inbound._in_flight[0][0] <= now_ps
        }


class SoftStack:
    """One host's soft offload engine: transport + service model."""

    def __init__(
        self,
        ip: int,
        port,
        service: ServiceModel,
        name: str = "soft",
        seed: int = 0,
    ) -> None:
        self.ip = ip
        self.port = port
        self.service = service
        self.name = name
        self.now_ps = 0  # the driving loop sets this before tick()
        #: The only RNG: seeded jitter on the ECN recovery hold-off,
        #: derived per host name so every stack draws its own stream.
        self._ecn_rng = random.Random(derive_seed(seed, f"ecn/{name}"))
        self.flows: Dict[int, _SoftFlow] = {}
        #: Lazy (deadline_ps, flow_id) min-heap over hs/rto deadlines;
        #: see ``_arm``.  Keeps ``next_deadline_ps``/``_expire_timers``
        #: O(log n) instead of O(flows) — the difference between a
        #: 2-host testbed and a million-flow shard cell.
        self._timers: List[Tuple[int, int]] = []
        #: Set by the owner's :class:`TimerWakeIndex`: called with the
        #: raw head of ``_timers`` whenever that head changes.
        self._publish_wake: Optional[Callable[[int], None]] = None
        self.host_messages: Dict[int, Deque[EngineMessage]] = {0: deque()}
        #: Bumped on every host-queue mutation, mirroring
        #: ``FtEngine.msg_epoch`` so pollers can skip unchanged queues.
        self.msg_epoch = 0
        self._listening: Set[int] = set()
        self._accept_queues: Dict[int, Deque[int]] = {}
        self._by_key: Dict[FlowKey, int] = {}
        self._next_flow_id = 0
        self._next_port = _EPHEMERAL_BASE
        #: One int shared by every flow this stack opens, not one boxed
        #: per flow.
        self._init_cwnd = INIT_CWND_SEGMENTS * MSS
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
        self.host_messages[0].append(EngineMessage(kind, flow_id, value))
        self.msg_epoch += 1

    def _alloc_slot(self) -> int:
        if self._free_slots:
            return heapq.heappop(self._free_slots)
        slot = self._next_slot
        self._next_slot += 1
        return slot

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

    def _rwnd(self, flow: _SoftFlow) -> int:
        used = flow.contiguous - flow.delivered
        free = RECV_BUFFER - used
        return free if free > 0 else 0

    def _arm(self, flow: _SoftFlow) -> None:
        """Index the flow's earliest live deadline in the timer heap.

        Lazy discipline: at most one *tracked* entry per flow (its
        earliest pushed instant, ``timer_armed_ps``).  Re-arming later
        than the tracked entry pushes nothing — the stale entry pops at
        its old instant, finds nothing due, and re-indexes at the true
        deadline.  So arming stays O(log n) and the heap stays
        proportional to the flow count, not the ack count.
        """
        hs, rto = flow.hs_deadline_ps, flow.rto_deadline_ps
        if hs and rto:
            deadline = hs if hs < rto else rto
        else:
            deadline = hs or rto
        if deadline <= 0:
            return
        if flow.timer_armed_ps == 0 or deadline < flow.timer_armed_ps:
            flow.timer_armed_ps = deadline
            timers = self._timers
            if self._publish_wake is not None and (
                not timers or deadline < timers[0][0]
            ):
                self._publish_wake(deadline)
            heapq.heappush(timers, (deadline, flow.flow_id))

    # ----------------------------------------------------- host-facing API
    def listen(self, port: int) -> None:
        self._listening.add(port)
        self._accept_queues.setdefault(port, deque())

    def _alloc_key(self, dst_ip: int, dst_port: int) -> FlowKey:
        """The next free 4-tuple towards a destination: source ports run
        on from the last one handed out, wrap inside the valid range
        and skip any still held by a live flow."""
        port = self._next_port
        for _ in range(_PORT_COUNT):
            key = FlowKey(self.ip, port, dst_ip, dst_port)
            port = port + 1 if port < _PORT_MAX else _PORT_MIN
            if key not in self._by_key:
                self._next_port = port
                return key
        raise OSError(
            f"stack {self.name}: no free source port towards "
            f"{ip_to_string(dst_ip)}:{dst_port} — all "
            f"{_PORT_COUNT} 4-tuples are held by live flows"
        )

    def connect(self, dst_ip: int, dst_port: int) -> int:
        key = self._alloc_key(dst_ip, dst_port)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        flow = _SoftFlow(
            flow_id, key, self._alloc_slot(), TcpState.SYN_SENT,
            self._init_cwnd,
        )
        self.flows[flow_id] = flow
        self._by_key[key] = flow_id
        at = self._send_segment(flow, FabricPacket("syn", key))
        flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
        self._arm(flow)
        return flow_id

    def accept(self, port: int, thread_id: int = 0) -> Optional[int]:
        queue = self._accept_queues.get(port)
        if not queue:
            return None
        return queue.popleft()

    def flow_state(self, flow_id: int) -> Optional[TcpState]:
        flow = self.flows.get(flow_id)
        return flow.state if flow is not None else None

    def send_room(self, flow_id: int) -> int:
        """Bytes :meth:`send_data` would accept now."""
        flow = self.flows.get(flow_id)
        if flow is None or flow.fin_queued:
            return 0
        return SEND_BUFFER - (flow.app_written - flow.flow_acked)

    def send_data(self, flow_id: int, data: bytes) -> int:
        accepted = min(len(data), self.send_room(flow_id))
        if accepted <= 0:
            return 0
        flow = self.flows[flow_id]
        flow.app_written += accepted
        if flow.state is TcpState.ESTABLISHED:
            self._pump_flow(flow)
        return accepted

    def readable(self, flow_id: int) -> int:
        flow = self.flows.get(flow_id)
        if flow is None:
            return 0
        return flow.contiguous - flow.delivered

    def recv_data(self, flow_id: int, nbytes: int) -> bytes:
        flow = self.flows.get(flow_id)
        if flow is None:
            return b""
        take = min(nbytes, flow.contiguous - flow.delivered)
        if take <= 0:
            return b""
        flow.delivered += take
        return bytes(take)

    def close_flow(self, flow_id: int) -> None:
        flow = self.flows.get(flow_id)
        if flow is None or flow.fin_queued:
            return
        flow.fin_queued = True
        if flow.state is TcpState.ESTABLISHED:
            self._pump_flow(flow)

    def drain_host_messages(self, thread_id: int = 0) -> List[EngineMessage]:
        queue = self.host_messages.get(thread_id)
        if not queue:
            return []
        drained = list(queue)
        queue.clear()
        self.msg_epoch += 1
        return drained

    # ------------------------------------------------------------ the tick
    def next_deadline_ps(self) -> Optional[int]:
        """The earliest live deadline, dropping the stale entries above it."""
        timers = self._timers
        popped = False
        while timers:
            deadline, flow_id = timers[0]
            flow = self.flows.get(flow_id)
            actual = 0
            if flow is not None:
                hs, rto = flow.hs_deadline_ps, flow.rto_deadline_ps
                if hs and rto:
                    actual = hs if hs < rto else rto
                else:
                    actual = hs or rto
            if actual == deadline:
                if popped and self._publish_wake is not None:
                    self._publish_wake(deadline)
                return deadline
            # Dead flow or superseded deadline: drop the entry and, if
            # the flow still has a live deadline, re-index it there.
            heapq.heappop(timers)
            popped = True
            if flow is not None:
                if flow.timer_armed_ps == deadline:
                    flow.timer_armed_ps = 0
                self._arm(flow)
        return None

    def tick(self) -> None:
        now = self.now_ps
        for packet in self.port.poll(now):
            self._receive(packet, now)
        self._expire_timers(now)

    # ------------------------------------------------------- the data path
    def _pump_flow(self, flow: _SoftFlow) -> None:
        """Send whatever the window allows; arm the retransmit timer."""
        window = flow.cwnd if flow.cwnd < flow.peer_window else flow.peer_window
        sent_any = False
        last_at = 0
        while flow.next_to_send < flow.app_written:
            flight = flow.next_to_send - flow.flow_acked
            if flight >= window:
                break
            chunk = min(
                MSS, flow.app_written - flow.next_to_send,
                window - flight,
            )
            last_at = self._send_segment(
                flow,
                FabricPacket(
                    "data", flow.key, offset=flow.next_to_send,
                    payload_bytes=chunk, ack_to=flow.contiguous,
                    window=self._rwnd(flow),
                ),
            )
            flow.next_to_send += chunk
            sent_any = True
        if (
            flow.fin_queued
            and not flow.fin_sent
            and flow.next_to_send == flow.app_written
        ):
            last_at = self._send_segment(
                flow, FabricPacket("fin", flow.key, offset=flow.app_written)
            )
            flow.fin_sent = True
            sent_any = True
        if sent_any and flow.rto_deadline_ps == 0:
            flow.rto_deadline_ps = last_at + (
                RTO_PS << flow.rto_backoff
            )
            self._arm(flow)

    def _retransmit_from(self, flow: _SoftFlow, go_back: bool) -> None:
        """Resend from the cumulative ack point (one MSS, or go-back-N)."""
        self.retransmits += 1
        if self.trace is not None:
            self.trace.emit(
                self.now_ps, "fabric", self.trace_name, "retx",
                flow.flow_id, f"from={flow.flow_acked} gbn={int(go_back)}",
            )
        if go_back:
            flow.next_to_send = flow.flow_acked
            flow.fin_sent = False
            self._pump_flow(flow)
            return
        chunk = min(
            MSS, flow.app_written - flow.flow_acked
        )
        if chunk > 0:
            self._send_segment(
                flow,
                FabricPacket(
                    "data", flow.key, offset=flow.flow_acked,
                    payload_bytes=chunk, ack_to=flow.contiguous,
                    window=self._rwnd(flow),
                ),
            )
        elif flow.fin_sent and not flow.fin_acked:
            self._send_segment(
                flow, FabricPacket("fin", flow.key, offset=flow.app_written)
            )

    def _expire_timers(self, now: int) -> None:
        timers = self._timers
        if not timers or timers[0][0] > now:
            return
        while timers and timers[0][0] <= now:
            deadline, flow_id = heapq.heappop(timers)
            flow = self.flows.get(flow_id)
            if flow is None:
                continue
            if flow.timer_armed_ps == deadline:
                flow.timer_armed_ps = 0
            if flow.hs_deadline_ps and now >= flow.hs_deadline_ps:
                if flow.state is TcpState.SYN_SENT:
                    at = self._send_segment(flow, FabricPacket("syn", flow.key))
                    flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
                elif flow.state is TcpState.SYN_RECEIVED:
                    at = self._send_segment(
                        flow, FabricPacket("synack", flow.key)
                    )
                    flow.hs_deadline_ps = at + HANDSHAKE_RTO_PS
                else:
                    flow.hs_deadline_ps = 0
            if flow.rto_deadline_ps and now >= flow.rto_deadline_ps:
                outstanding = (
                    flow.flow_acked < flow.next_to_send
                    or (flow.fin_sent and not flow.fin_acked)
                )
                if not outstanding:
                    flow.rto_deadline_ps = 0
                else:
                    self.timeouts += 1
                    flight = flow.next_to_send - flow.flow_acked
                    half = flight // 2
                    flow.ssthresh = max(half, 2 * MSS)
                    flow.cwnd = MSS
                    if flow.rto_backoff < 6:
                        flow.rto_backoff += 1
                    flow.rto_deadline_ps = now + (
                        RTO_PS << flow.rto_backoff
                    )
                    self._retransmit_from(flow, go_back=True)
            self._arm(flow)
        if timers and self._publish_wake is not None:
            self._publish_wake(timers[0][0])

    # ------------------------------------------------------------- receive
    def _receive(self, packet: FabricPacket, now: int) -> None:
        self.packets_received += 1
        kind = packet.kind
        if kind == "syn":
            self._on_syn(packet)
            return
        # Everything else belongs to an existing flow, looked up by the
        # local view of the 4-tuple (the peer's key reversed).
        flow_id = self._by_key.get(packet.key.reversed())
        if flow_id is None:
            return  # late segment for a torn-down flow
        flow = self.flows[flow_id]
        if self.trace is not None:
            self.trace.emit(
                now, "fabric", self.trace_name, f"rx-{kind}",
                flow_id, f"off={packet.offset} n={packet.payload_bytes}",
            )
        if kind == "synack":
            self._on_synack(flow)
            return
        if flow.state is TcpState.SYN_RECEIVED:
            # Handshake ACK (possibly carrying data): promote + enqueue
            # on the accept queue before normal processing.
            flow.state = TcpState.ESTABLISHED
            flow.hs_deadline_ps = 0
            # Only passive flows are ever SYN_RECEIVED, and theirs is
            # the key of a SYN to a listening port.
            self._accept_queues[flow.key.src_port].append(flow_id)
            self._post("accepted", flow_id)
        if kind == "data":
            self._on_data(flow, packet, now)
        elif kind == "ack":
            self._on_ack(flow, packet, now)
        elif kind == "fin":
            self._on_fin(flow, packet, now)
        self._maybe_teardown(flow)

    def _on_syn(self, packet: FabricPacket) -> None:
        if packet.key.dst_port not in self._listening:
            return
        key = packet.key.reversed()  # our view: src = us
        existing = self._by_key.get(key)
        if existing is not None:
            flow = self.flows[existing]  # duplicate SYN: re-answer
        else:
            flow_id = self._next_flow_id
            self._next_flow_id += 1
            flow = _SoftFlow(
                flow_id, key, self._alloc_slot(), TcpState.SYN_RECEIVED,
                self._init_cwnd,
            )
            self.flows[flow_id] = flow
            self._by_key[key] = flow_id
        at = self._send_segment(flow, FabricPacket("synack", flow.key))
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
                "ack", flow.key, ack_to=0, window=self._rwnd(flow)
            ),
        )
        self._pump_flow(flow)

    def _on_data(self, flow: _SoftFlow, packet: FabricPacket, now: int) -> None:
        if packet.ce:
            flow.ce_pending = True
        start, end = packet.offset, packet.offset + packet.payload_bytes
        before = flow.contiguous
        if start <= flow.contiguous:
            if end > flow.contiguous:
                flow.contiguous = end
            if flow.ooo:
                # Absorb any out-of-order runs now made contiguous.
                merged: List[Tuple[int, int]] = []
                for lo, hi in flow.ooo:
                    if lo <= flow.contiguous:
                        if hi > flow.contiguous:
                            flow.contiguous = hi
                    else:
                        merged.append((lo, hi))
                flow.ooo = merged or _NO_RUNS
        else:
            self._insert_ooo(flow, start, end)
        if flow.contiguous > before:
            self._post("data", flow.flow_id, flow.contiguous - before)
        self._ack_now(flow)

    def _insert_ooo(self, flow: _SoftFlow, start: int, end: int) -> None:
        runs = [*flow.ooo, (start, end)]  # never the shared empty itself
        runs.sort()
        merged = [runs[0]]
        for lo, hi in runs[1:]:
            last_lo, last_hi = merged[-1]
            if lo <= last_hi:
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        flow.ooo = merged

    def _ack_now(self, flow: _SoftFlow) -> None:
        ack_to = flow.contiguous
        if (
            flow.peer_fin_at >= 0
            and flow.contiguous >= flow.peer_fin_at
        ):
            ack_to = flow.peer_fin_at + 1  # the FIN's virtual byte
        self._send_segment(
            flow,
            FabricPacket(
                "ack", flow.key, ack_to=ack_to,
                window=self._rwnd(flow), ece=flow.ce_pending,
            ),
        )
        flow.ce_pending = False

    def _on_ack(self, flow: _SoftFlow, packet: FabricPacket, now: int) -> None:
        flow.peer_window = max(packet.window, MSS)
        if packet.ece and now >= flow.ecn_hold_until_ps:
            # One multiplicative decrease per congestion round trip:
            # halve, then hold off for a seeded recovery interval so a
            # burst of echoed marks maps to one response, and the
            # jitter desynchronizes the senders of an incast instead
            # of letting them all re-open their windows in lockstep.
            half = flow.cwnd // 2
            flow.cwnd = max(MSS, half)
            flow.ssthresh = flow.cwnd
            hold = ECN_RECOVERY_PS
            hold += self._ecn_rng.randrange(hold // 8 + 1)
            flow.ecn_hold_until_ps = now + hold
            self.ecn_echoes += 1
        fin_point = flow.app_written + 1 if flow.fin_sent else -1
        if packet.ack_to == fin_point and not flow.fin_acked:
            flow.fin_acked = True
            flow.flow_acked = flow.app_written
            flow.rto_deadline_ps = 0
            return
        advanced = packet.ack_to - flow.flow_acked
        if advanced > 0:
            flow.flow_acked = packet.ack_to
            flow.dup_acks = 0
            flow.rto_backoff = 0
            outstanding = (
                flow.flow_acked < flow.next_to_send
                or (flow.fin_sent and not flow.fin_acked)
            )
            flow.rto_deadline_ps = (
                now + RTO_PS if outstanding else 0
            )
            if outstanding:
                self._arm(flow)
            if flow.next_to_send < flow.flow_acked:
                flow.next_to_send = flow.flow_acked
            # Congestion window growth: slow start, then ~MSS per RTT.
            if flow.cwnd < flow.ssthresh:
                flow.cwnd += min(advanced, MSS)
            else:
                flow.cwnd += max(1, MSS * MSS // flow.cwnd)
            if flow.cwnd > SEND_BUFFER:
                flow.cwnd = SEND_BUFFER
            self._post("acked", flow.flow_id, advanced)
            self._pump_flow(flow)
        elif (
            packet.ack_to == flow.flow_acked
            and flow.next_to_send > flow.flow_acked
        ):
            flow.dup_acks += 1
            if flow.dup_acks == 3 and flow.flow_acked >= flow.recover_mark:
                half = (flow.next_to_send - flow.flow_acked) // 2
                flow.ssthresh = max(half, 2 * MSS)
                flow.cwnd = flow.ssthresh
                flow.recover_mark = flow.next_to_send
                self._retransmit_from(flow, go_back=False)

    def _on_fin(self, flow: _SoftFlow, packet: FabricPacket, now: int) -> None:
        flow.peer_fin_at = packet.offset
        self._ack_now(flow)

    def _maybe_teardown(self, flow: _SoftFlow) -> None:
        peer_done = (
            flow.peer_fin_at >= 0 and flow.contiguous >= flow.peer_fin_at
        )
        if peer_done and not flow.eof_posted:
            flow.eof_posted = True
            self._post("eof", flow.flow_id)
        if peer_done and flow.fin_acked:
            flow.state = TcpState.CLOSED
            del self.flows[flow.flow_id]
            self._by_key.pop(flow.key, None)
            heapq.heappush(self._free_slots, flow.slot)
            self._post("closed", flow.flow_id)
            if self.trace is not None:
                self.trace.emit(
                    self.now_ps, "fabric", self.trace_name, "closed",
                    flow.flow_id, "teardown complete",
                )


class TimerWakeIndex:
    """One ``(raw timer-heap head, host)`` min-heap over a set of stacks.

    The owner of the stacks (``CellSim``, ``FabricLoadEngine``,
    ``SoftTestbed``) builds it once; from then on every stack publishes
    its raw ``_timers`` head here whenever that head changes — ``_arm``
    pushing a new head, ``_expire_timers``/``next_deadline_ps`` popping
    the old one.  An entry is live iff it still equals its stack's raw
    head; anything else was superseded by a later publish and is dropped
    on pop.  So "who has a timer entry to pop now" and "when is the next
    timer instant" cost what is due, not one visit per host.
    """

    def __init__(self, stacks: Iterable[Tuple[int, "SoftStack"]]) -> None:
        #: host -> stack, in the order given (ascending host).
        self.stacks: Dict[int, SoftStack] = dict(stacks)
        self._heap: List[Tuple[int, int]] = []
        self.pushes = 0
        self.live_pops = 0
        self.stale_pops = 0
        for host, stack in self.stacks.items():
            stack._publish_wake = partial(self._publish, host)

    def _publish(self, host: int, head_ps: int) -> None:
        self.pushes += 1
        heapq.heappush(self._heap, (head_ps, host))

    def pop_due(self, now_ps: int, due: Set[int]) -> None:
        """Add to ``due`` every host whose stack has a timer entry (live
        or stale) to pop at ``now_ps``."""
        heap = self._heap
        while heap and heap[0][0] <= now_ps:
            head, host = heapq.heappop(heap)
            timers = self.stacks[host]._timers
            if timers and timers[0][0] == head:
                self.live_pops += 1
                due.add(host)
            else:
                self.stale_pops += 1

    def next_deadline_ps(self, best: Optional[int]) -> Optional[int]:
        """``best`` lowered to the earliest live timer deadline under it.

        A raw head is never later than its stack's true deadline, so only
        a top that beats ``best`` is worth validating; validation drops
        the stack's stale timer entries and re-publishes, which leaves
        this top superseded and the next one to look at.
        """
        heap = self._heap
        while heap and (best is None or heap[0][0] < best):
            head, host = heap[0]
            stack = self.stacks[host]
            timers = stack._timers
            if timers and timers[0][0] == head and stack.next_deadline_ps() == head:
                return head
            # Superseded: anything re-published is later than ``head``,
            # so the top is still this entry.
            heapq.heappop(heap)
            self.stale_pops += 1
        return best


def run_event_loop(
    clock,
    wake: TimerWakeIndex,
    network,
    deadline_ps: int,
    until: Optional[Callable[[], bool]] = None,
    next_call_ps: Optional[Callable[[], int]] = None,
    max_steps: Optional[int] = None,
) -> bool:
    """The one discrete-event loop every set of soft-stack hosts runs on.

    ``clock`` is the owner (``SoftTestbed``, ``FabricLoadEngine``) whose
    integer ``time_ps`` this loop advances; predicates and drivers read
    it between events.  ``wake`` is the owner's timer wake index over
    the stacks.  ``network`` (``SoftWire``, ``SwitchFabric``) joins
    them: ``advance(now_ps)`` runs its events up to the instant and
    names the stacks (by host) with a delivery due, and
    ``next_event_ps()`` is its next state change.  The soft stacks do
    nothing between packet arrivals and timer deadlines, so an instant
    ticks — in ascending host order — only the stacks with a delivery
    or a timer entry due in the index, then jumps to the earliest of
    the network's next event, the pump's declared instant and the
    index's earliest live deadline (validated only when its raw top
    beats the other two), never past ``deadline_ps``.

    ``until`` (the driver's pump) has ``Testbed.run``'s contract in
    picoseconds.  Without ``next_call_ps`` it runs at every instant.
    With it, asked right after each call, ``until`` runs only at the
    instant that names (:data:`NEVER`: never by itself; an instant
    already reached: the next picosecond) or when a stack ticked at
    this instant posted a host message (moved its ``msg_epoch``; the
    pump's own drains do not count).  Every stack's ``now_ps`` is
    stamped before a call: the driver may call into any.

    True when ``until`` held, or with no ``until`` when nothing is left
    to happen; False on the deadline, the step bound, or a stall (no
    future event could change ``until``).
    """
    stacks = wake.stacks
    steps = 0
    pump_at = 0  # the first instant calls the pump
    while True:
        t = clock.time_ps
        due = network.advance(t)
        wake.pop_due(t, due)
        posted = False
        for host in sorted(due):
            stack = stacks[host]
            epoch = stack.msg_epoch
            stack.now_ps = t
            stack.tick()
            posted = posted or stack.msg_epoch != epoch
        if until is not None and (next_call_ps is None or t >= pump_at or posted):
            for stack in stacks.values():
                stack.now_ps = t
            if until():
                return True
            if next_call_ps is not None:
                pump_at = next_call_ps()
                if pump_at <= t:
                    pump_at = t + 1
        if t >= deadline_ps or (max_steps is not None and steps >= max_steps):
            return False
        following = network.next_event_ps()
        if following is not None and following <= t:
            following = None
        if t < pump_at < NEVER and (following is None or pump_at < following):
            following = pump_at
        following = wake.next_deadline_ps(following)
        if following is None:
            return until is None
        clock.time_ps = min(following, deadline_ps)
        steps += 1


class SoftTestbed:
    """Two soft stacks back to back: the point-to-point backend testbed.

    The same shape as :class:`~repro.engine.testbed.Testbed` —
    ``engine_a``/``engine_b``/``wire``/``run()``/``now_s``/``cycle`` —
    but driven as a discrete-event loop over integer picoseconds: the
    soft stacks do nothing between packet arrivals and timer deadlines,
    so the loop jumps straight from event to event.
    """

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        service_factory: Callable[[], ServiceModel],
        drop_probability: float = 0.0,
        seed: int = 0,
        backend: str = "soft",
    ) -> None:
        self.wire = SoftWire(drop_probability=drop_probability, seed=seed)
        self.backend = backend
        self.engine_a = SoftStack(
            ip_from_string("10.0.0.1"), self.wire.port_a, service_factory(),
            name="a", seed=seed,
        )
        self.engine_b = SoftStack(
            ip_from_string("10.0.0.2"), self.wire.port_b, service_factory(),
            name="b", seed=seed,
        )
        self._wake = TimerWakeIndex(enumerate((self.engine_a, self.engine_b)))
        self.time_ps = 0

    @property
    def now_s(self) -> float:
        return self.time_ps / 1e12

    @property
    def cycle(self) -> int:
        return self.time_ps // _PERIOD_PS

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time_s: float = 1.0,
        max_steps: int = 50_000_000,
        next_call_ps: Optional[Callable[[], int]] = None,
    ) -> bool:
        """Event-driven run: ``Testbed.run``'s contract, in picoseconds
        (see :func:`run_event_loop`)."""
        return run_event_loop(
            self,
            self._wake,
            self.wire,
            seconds_to_ps(max_time_s),
            until=until,
            next_call_ps=next_call_ps,
            max_steps=max_steps,
        )
