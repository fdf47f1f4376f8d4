"""FtEngine: the full FPGA TCP accelerator, assembled (§4.1.2, Fig 3).

The engine bundles the control path (scheduler, FPCs, memory manager,
timers), the TX data path (packet generator), the RX data path (parser
with cuckoo flow lookup and logical reassembly), and ARP/ICMP.  It is a
clocked component: one :meth:`tick` is one 250 MHz cycle.

The host-facing API (``connect`` / ``listen`` / ``accept`` /
``send_data`` / ``recv_data`` / ``close_flow``) stands for the 16 B
commands of the F4T software stack (§4.1.1): a call hands its pointer
straight to the scheduler, and no command ring is simulated.
Notifications flowing back to the host are queued as
:class:`EngineMessage` objects on one queue the host drains.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar, Deque, Dict, List, Optional, Sequence, Set

from collections import Counter, deque

from ..net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
    make_mac,
)
from ..net.wire import WirePort
from ..sim.component import NEVER, Component
from ..tcp.segment import (
    FLAG_ACK,
    FLAG_RST,
    PACKET_OVERHEAD,
    PORT_MAX,
    PORT_MIN,
    FlowKey,
    TcpSegment,
    free_flow_key,
)
from ..tcp.seq import SEQ_MOD, seq_add
from ..tcp.state_machine import TcpState
from ..tcp.tcb import DEFAULT_BUFFER_BYTES, DEFAULT_MSS, Tcb
from ..tcp.timers import TimerWheel
from .arp import ArpModule
from .buffers import SendStream
from .events import (
    EventKind,
    TcpEvent,
    timeout_event,
    user_recv_event,
    user_send_event,
)
from .fpc import FlowProcessingCore
from .fpu import NoteKind, ProcessResult, TimerOp, TxDirective
from .icmp import IcmpMessage, IcmpModule
from .memory_manager import MemoryManager
from .rx_parser import RxParser
from .packet_gen import PacketGenerator
from .scheduler import Scheduler
from ..sim.memory import DRAMModel

#: FtEngine's main clock (§4.1): control path at 250 MHz.
ENGINE_FREQ_HZ = 250e6
#: Exact integer picoseconds per 250 MHz cycle — simulated time is integer
#: ps end-to-end (simlint F4T007); 250 MHz divides 1 THz evenly.
ENGINE_PERIOD_PS = 10**12 // int(ENGINE_FREQ_HZ)

#: Source ports an active open may take (module names, so a test can
#: narrow the range), and where the first one starts.
_PORT_MIN, _PORT_MAX = PORT_MIN, PORT_MAX
_PORT_COUNT = _PORT_MAX - _PORT_MIN + 1
_EPHEMERAL_BASE = 40000


@dataclass
class FtEngineConfig:
    """Reference design parameters (§4.4.2, §4.7)."""

    num_fpcs: int = 8
    fpc_slots: int = 128
    algorithm: str = "newreno"
    #: 'hbm' (460 GB/s) or 'ddr4' (38 GB/s) for the TCB store (§4.7).
    memory: str = "hbm"
    coalescing: ClassVar[bool] = True
    mss: int = DEFAULT_MSS
    send_buffer: ClassVar[int] = DEFAULT_BUFFER_BYTES
    recv_buffer: ClassVar[int] = DEFAULT_BUFFER_BYTES
    tcb_cache_entries: ClassVar[int] = 512

    @property
    def sram_flow_capacity(self) -> int:
        return self.num_fpcs * self.fpc_slots


class EngineMessage:
    """A command FtEngine sends up to the software stack (§4.1.1)."""

    __slots__ = ("kind", "flow_id", "value")

    def __init__(self, kind: str, flow_id: int, value: int) -> None:
        #: 'acked' | 'connected' | 'accepted' | 'data' | 'eof' | 'closed'
        #: | 'reset'
        self.kind = kind
        self.flow_id = flow_id
        self.value = value


class _FlowRecord:
    """Engine-side per-flow metadata outside the TCB."""

    __slots__ = ("key", "stream", "listen_port", "closed")

    def __init__(
        self, key: FlowKey, stream: SendStream, listen_port: Optional[int]
    ) -> None:
        self.key = key
        self.stream = stream
        self.listen_port = listen_port  # set for passively opened flows
        self.closed = False


class FtEngine(Component):
    """One FtEngine instance attached to one wire port."""

    _ids = itertools.count(1)

    def __init__(
        self,
        ip: int,
        config: Optional[FtEngineConfig] = None,
        port: Optional[WirePort] = None,
    ) -> None:
        node_id = next(self._ids)
        super().__init__(f"ftengine{node_id}")
        self.ip = ip
        self.mac = make_mac(node_id)
        self.config = config or FtEngineConfig()
        self.port = port

        dram = DRAMModel.hbm() if self.config.memory == "hbm" else DRAMModel.ddr4()
        self.dram = dram

        self.memory_manager = MemoryManager(
            dram,
            cache_entries=self.config.tcb_cache_entries,
            clock=self,
        )
        self.fpcs = [
            FlowProcessingCore(
                i,
                slots=self.config.fpc_slots,
                algorithm=self.config.algorithm,
                clock=self,
            )
            for i in range(self.config.num_fpcs)
        ]
        #: The indices of the armed FPCs — those whose ``next_action``
        #: is not NEVER — in order, each FPC announcing itself as it
        #: arms: all the tick visits.
        self._armed: List[int] = []
        arm = functools.partial(bisect.insort, self._armed)
        for fpc in self.fpcs:
            fpc.notify_armed = arm
        self.scheduler = Scheduler(
            self.fpcs,
            self.memory_manager,
            coalescing=self.config.coalescing,
            clock=self,
        )
        self.timers = TimerWheel()
        self.arp = ArpModule(self.mac, ip)
        self.icmp = IcmpModule(ip)
        self.rx_parser = RxParser(
            passive_open=self._passive_open,
            recv_buffer_bytes=self.config.recv_buffer,
        )
        self.packet_gen = PacketGenerator(
            key_of_flow=self._key_of_flow,
            stream_of_flow=self._stream_of_flow,
        )

        self.flows: Dict[int, _FlowRecord] = {}
        #: The 4-tuples of ``flows``, so an active open never reuses one.
        self._keys_in_use: Set[FlowKey] = set()
        #: port -> its accept queue of established flows.
        self.listening: Dict[int, Deque[int]] = {}
        self._next_flow_id = 0
        self._next_ephemeral_port = _EPHEMERAL_BASE

        #: Events that could not enter the scheduler yet (backpressure).
        self._event_backlog: Deque[TcpEvent] = deque()
        #: The host's message queue, every flow's messages in post order.
        self.host_messages: Deque[EngineMessage] = deque()
        #: Bumped on every post (and by :meth:`drain_host_messages`) so
        #: pollers can skip rescanning an untouched queue; a host that
        #: pops the queue itself (``LoadEngine``) leaves it be.
        self.msg_epoch = 0

        #: The engine's named counts (a missing name reads 0).
        self.counters: Counter[str] = Counter()

        #: The work horizon: the first cycle on which :meth:`tick` does
        #: anything, NEVER while nothing is scheduled.  The end of each
        #: tick publishes it and a submitted event pulls it to the next
        #: cycle — every host call that can move it submits one — so it
        #: holds until this engine's next tick, except that the peer's
        #: tick can pull its wire-arrival term in (:meth:`Testbed.run`
        #: folds :meth:`next_arrival_cycle` then).
        self.next_action = NEVER
        #: The frames on their way in, earliest arrival first.
        self._wire_in = port._inbound._in_flight if port is not None else []

        #: Observability (repro.obs): a TraceBus, or None — the default —
        #: which keeps every emit site at one attribute test of cost.
        self.trace = None
        self.trace_name = self.name
        self._trace_last_state: Dict[int, TcpState] = {}

    # ---------------------------------------------------------------- time
    @property
    def time_ps(self) -> int:
        """The engine's one clock, in exact integer picoseconds."""
        return self.cycle * ENGINE_PERIOD_PS

    # ------------------------------------------------------------ flow API
    def _alloc_flow_id(self) -> int:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def _initial_seq(self, flow_id: int) -> int:
        # Deterministic ISS placed near the wrap point now and then so
        # sequence-wrap paths get continuous exercise.
        return (0xFFFF8000 + flow_id * 99991) % SEQ_MOD

    def _key_of_flow(self, flow_id: int) -> Optional[FlowKey]:
        record = self.flows.get(flow_id)
        return None if record is None else record.key

    def _stream_of_flow(self, flow_id: int) -> Optional[SendStream]:
        record = self.flows.get(flow_id)
        return None if record is None else record.stream

    def _create_flow(self, key: FlowKey, listen_port: Optional[int] = None) -> int:
        flow_id = self._alloc_flow_id()
        iss = self._initial_seq(flow_id)
        tcb = Tcb(
            flow_id=flow_id,
            key=key,
            iss=iss,
            req=iss,  # nothing requested yet; the SYN consumes iss itself
            snd_una=iss,
            snd_nxt=iss,
            mss=self.config.mss,
            send_buf=self.config.send_buffer,
            rcv_buf=self.config.recv_buffer,
            last_active=self.time_ps,
        )
        # The flow table first: a CuckooFullError leaves nothing behind.
        self.rx_parser.register_flow(key, flow_id, rcv_nxt=0)
        self.flows[flow_id] = _FlowRecord(
            key=key,
            stream=SendStream(seq_add(iss, 1), self.config.send_buffer),
            listen_port=listen_port,
        )
        self._keys_in_use.add(key)
        self.scheduler.register_new_flow(tcb)
        self.counters["flows_created"] += 1
        return flow_id

    def connect(
        self,
        dst_ip: int,
        dst_port: int,
        src_port: Optional[int] = None,
    ) -> int:
        """Active open; returns the flow ID immediately (SYN in flight)."""
        if src_port is None:
            key, self._next_ephemeral_port = free_flow_key(
                self.ip, dst_ip, dst_port, self._next_ephemeral_port,
                self._keys_in_use, f"engine {self.name}", _PORT_MIN, _PORT_COUNT,
            )
        else:
            key = FlowKey(self.ip, src_port, dst_ip, dst_port)
        flow_id = self._create_flow(key)
        self._submit(
            TcpEvent(
                EventKind.USER_REQ, flow_id, connect=True, timestamp=self.time_ps
            )
        )
        return flow_id

    def listen(self, port: int) -> None:
        """Open a passive listening port with its accept queue."""
        self.listening.setdefault(port, deque())

    def accept(self, port: int) -> Optional[int]:
        """Pop an established connection from the port's accept queue
        (None when it is empty or nothing listens there)."""
        queue = self.listening.get(port)
        if not queue:
            return None
        return queue.popleft()

    def _passive_open(self, segment: TcpSegment) -> Optional[int]:
        """RX-parser callback: a SYN arrived for a port we listen on."""
        if segment.dst_ip != self.ip or segment.dst_port not in self.listening:
            return None
        key = segment.flow_key.reversed()  # local view: we are the source
        flow_id = self._create_flow(key, listen_port=segment.dst_port)
        self.counters["passive_opens"] += 1
        return flow_id

    # --------------------------------------------------------- socket data
    def send_data(self, flow_id: int, data: bytes) -> int:
        """Buffer ``data`` and submit the new request pointer (§4.2.1).

        Returns the number of bytes accepted (bounded by buffer room):
        0 on a full buffer, which a blocking host waits out.
        """
        record = self.flows.get(flow_id)
        if record is None:
            raise KeyError(f"unknown flow {flow_id}")
        accept = min(len(data), record.stream.room)
        if accept == 0:
            return 0
        pointer = record.stream.append(data[:accept])
        self._submit(
            user_send_event(flow_id, pointer, self.cycle * ENGINE_PERIOD_PS)
        )
        self.counters["send_requests"] += 1
        return accept

    def send_room(self, flow_id: int) -> int:
        """Bytes :meth:`send_data` would accept now (none for an unknown
        flow)."""
        record = self.flows.get(flow_id)
        return 0 if record is None else record.stream.room

    def readable(self, flow_id: int) -> int:
        state = self.rx_parser.rx_states.get(flow_id)
        return 0 if state is None else state.reassembly.readable

    def recv_data(self, flow_id: int, nbytes: int) -> bytes:
        """Read reassembled in-order data (the host's recv() DMA out of
        the data buffer); advances the rcv_user pointer."""
        state = self.rx_parser.rx_states.get(flow_id)
        if state is None:
            return b""
        reassembly = state.reassembly
        data = reassembly.read(nbytes)
        if data:
            # rcv_user = rcv_nxt - still-readable: everything consumed.
            consumed_upto = seq_add(reassembly.rcv_nxt, -reassembly.readable)
            self._submit(
                user_recv_event(
                    flow_id, consumed_upto, self.cycle * ENGINE_PERIOD_PS
                )
            )
            self.counters["recv_calls"] += 1
        return data

    def close_flow(self, flow_id: int) -> None:
        record = self.flows.get(flow_id)
        if record is None or record.closed:
            return
        self._submit(
            TcpEvent(
                EventKind.USER_REQ, flow_id, close=True, timestamp=self.time_ps
            )
        )
        self.counters["close_requests"] += 1

    def tcb_of(self, flow_id: int) -> Optional[Tcb]:
        """Debug/verification view of a flow's current TCB."""
        for fpc in self.fpcs:
            tcb = fpc.peek_tcb(flow_id)
            if tcb is not None:
                return tcb
        return self.memory_manager.peek_tcb(flow_id)

    def flow_state(self, flow_id: int) -> Optional[TcpState]:
        tcb = self.tcb_of(flow_id)
        return None if tcb is None else tcb.state

    # ------------------------------------------------------------- events
    def _submit(self, event: TcpEvent) -> None:
        if self.trace is not None:
            self.trace.emit(
                self.time_ps, "engine.sched", f"{self.trace_name}/events",
                "event", event.flow_id, _event_detail(event),
            )
        if self._event_backlog or not self.scheduler.submit(event):
            self._event_backlog.append(event)
        # Routed, coalesced or backlogged, the next tick has work.
        self.next_action = self.cycle + 1

    def _drain_backlog(self) -> None:
        while self._event_backlog:
            if not self.scheduler.submit(self._event_backlog[0]):
                break
            self._event_backlog.popleft()

    # ---------------------------------------------------------------- tick
    def next_work_cycle(self) -> int:
        """Publish :attr:`next_action` from scratch, and return it.

        For whoever drives this engine after changing it from outside
        the host API — a wire send, a timer, another run loop — as
        :meth:`Testbed.run` does once on entry.  From there on
        :meth:`tick` and the host calls keep it current.
        """
        best = NEVER
        for fpc in self.fpcs:
            if fpc.next_action < best:
                best = fpc.next_action
        return self._publish(best)

    def _publish(self, best: int) -> int:
        """Set :attr:`next_action` to the earliest of ``best`` (the FPCs'
        minimum) and the cycles the other blocks, the timers and the
        wire name for this engine's clock; a cycle already reached
        means the next tick."""
        soon = self.cycle + 1
        if self._event_backlog:
            best = soon
        else:
            due = self.memory_manager.next_action
            if due < best:
                best = due
            due = self.scheduler.next_action
            if due < best:
                best = due
            if best > soon:
                # The first cycles whose wire poll and timer check pass:
                # integer ceils of the head frame's arrival and the
                # earliest timer deadline.  (Once a block is due by the
                # next tick, neither can pull the horizon further in.)
                in_flight = self._wire_in
                if in_flight:
                    due = -(-in_flight[0][0] // ENGINE_PERIOD_PS)
                    if due < best:
                        best = due
                hint = self.timers.earliest_hint
                if hint != NEVER:
                    due = -(-hint // ENGINE_PERIOD_PS)
                    if due < best:
                        best = due
            if best < soon:
                best = soon
        self.next_action = best
        return best

    def next_arrival_cycle(self) -> int:
        """First cycle whose wire poll delivers a frame; NEVER if none.

        The one term of :attr:`next_action` the peer's tick can move: a
        frame sent at cycle *c* arrives strictly after *c*.
        """
        in_flight = self._wire_in
        if not in_flight:
            return NEVER
        k = -(-in_flight[0][0] // ENGINE_PERIOD_PS)
        return k if k > self.cycle else self.cycle + 1

    def advance_cycles(self, n: int) -> None:
        """Skip ``n`` quiet cycles: what ``n`` no-op ticks come to.

        Every block reads this clock, so there is nothing else to move.
        The caller proves quietness first: ``n`` must stop short of
        :attr:`next_action`.
        """
        self.cycle += n

    def tick(self) -> None:
        # Hot path: a block is called only on a cycle its ``next_action``
        # names; short of that its tick is a no-op.
        cycle = self.cycle + 1
        self.cycle = cycle
        now_ps = cycle * ENGINE_PERIOD_PS
        timers = self.timers
        if timers.earliest_hint <= now_ps:
            self._expire_timers()
        if self._event_backlog:
            self._drain_backlog()
        in_flight = self._wire_in
        if in_flight and in_flight[0][0] <= now_ps:
            for frame in self.port.poll(now_ps):
                self._handle_frame(frame)
        scheduler = self.scheduler
        if scheduler.next_action <= cycle:
            scheduler.tick()
        manager = self.memory_manager
        if manager.next_action <= cycle:
            manager.tick()
        # Only an armed FPC can act, in index order.  Nothing later in
        # a tick moves an FPC's horizon once it has had its turn, so
        # their minimum is taken on the way, and one that went idle
        # leaves the armed list.
        best = NEVER
        armed = self._armed
        if armed:
            fpcs = self.fpcs
            idle = False
            for i in armed:
                fpc = fpcs[i]
                due = fpc.next_action
                if due <= cycle:
                    fpc.tick()
                    if fpc.out_results:
                        self._drain_one_fpc(fpc)
                    due = fpc.next_action
                    if due == NEVER:
                        idle = True
                if due < best:
                    best = due
            if idle:
                armed[:] = [i for i in armed if fpcs[i].next_action != NEVER]
        # Last, so no RX notification outlives a tick.
        if self.rx_parser.notifications:
            self._drain_rx_notifications()
        # What _publish(best) does, inline: this runs once per tick.
        soon = cycle + 1
        if self._event_backlog:
            best = soon
        else:
            due = manager.next_action
            if due < best:
                best = due
            due = scheduler.next_action
            if due < best:
                best = due
            if best > soon:
                if in_flight:
                    due = -(-in_flight[0][0] // ENGINE_PERIOD_PS)
                    if due < best:
                        best = due
                hint = timers.earliest_hint
                if hint != NEVER:
                    due = -(-hint // ENGINE_PERIOD_PS)
                    if due < best:
                        best = due
            if best < soon:
                best = soon
        self.next_action = best

    def _drain_one_fpc(self, fpc) -> None:
        """Apply what an FPC's tick produced: timer, segments, host
        notifications.  (A TCB it evicted stays queued on the FPC: the
        scheduler, woken by it, collects it.)"""
        results, fpc.out_results = fpc.out_results, []
        for result in results:
            if self.trace is not None:
                self._trace_fpu(fpc, result)
            tcb = result.tcb
            if result.timer is TimerOp.ARM:
                self.timers.arm(tcb.flow_id, result.timer_deadline)
            elif result.timer is TimerOp.CANCEL:
                self.timers.cancel(tcb.flow_id)
            # Directives first: a CLOSED notification tears the flow
            # down, and the final ACK must still make it out.
            if result.directives:
                self._transmit_directives(tcb, result.directives)
            for note in result.notifications:
                self._apply_notification(note.kind, note.flow_id, note.value)

    def _trace_fpu(self, fpc, result: ProcessResult) -> None:
        """One FPU pass (and any state transition) onto the trace bus."""
        if self.trace is None:
            return
        tcb = result.tcb
        component = f"{self.trace_name}/fpc{fpc.fpc_id}"
        directives = ", ".join(
            f"seq={d.seq}+{d.length}{' RTX' if d.retransmission else ''}"
            for d in result.directives
        )
        self.trace.emit(
            self.time_ps, "engine.fpc", component, "fpu", tcb.flow_id,
            f"una={tcb.snd_una} nxt={tcb.snd_nxt} cwnd={tcb.cwnd}"
            + (f" -> [{directives}]" if directives else ""),
            dur_ps=fpc.fpu.latency_cycles * ENGINE_PERIOD_PS,
        )
        previous = self._trace_last_state.get(tcb.flow_id)
        if previous is not tcb.state:
            self._trace_last_state[tcb.flow_id] = tcb.state
            if previous is not None:
                self.trace.emit(
                    self.time_ps, "engine.fpc", component, "state",
                    tcb.flow_id, f"{previous.value} -> {tcb.state.value}",
                )

    def _expire_timers(self) -> None:
        now_ps = self.time_ps
        if self.timers.earliest_hint > now_ps:
            return
        for flow_id in self.timers.expire(now_ps):
            if flow_id in self.flows:
                self._submit(timeout_event(flow_id, now_ps))
                self.counters["timeouts_fired"] += 1

    def _handle_frame(self, frame: EthernetFrame) -> None:
        segment = frame.payload
        if type(segment) is not TcpSegment:
            if frame.ethertype == ETHERTYPE_ARP:
                reply, released = self.arp.handle(segment)
                if reply is not None:
                    self.port.send(reply, self.time_ps)
                for dst_mac, packet in released:
                    self._send_ipv4(packet, dst_mac)
                return
            if isinstance(segment, IcmpMessage):
                reply = self.icmp.handle(segment)
                if reply is not None:
                    self._transmit_ip(reply, reply.dst_ip)
                return
            if isinstance(segment, (bytes, bytearray)):
                try:
                    segment = TcpSegment.from_bytes(bytes(segment))
                except ValueError:
                    # Corrupted or malformed on the wire: checksum rejected.
                    self.counters["packets_corrupt_dropped"] += 1
                    return
        self.counters["packets_received"] += 1
        now_ps = self.cycle * ENGINE_PERIOD_PS
        event = self.rx_parser.parse(segment, now_ps)
        if event is not None:
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "engine.rx", f"{self.trace_name}/rx",
                    "rx", event.flow_id,
                    f"{segment.flag_names()} seq={segment.seq} "
                    f"ack={segment.ack} len={len(segment.payload)}",
                )
            self._submit(event)
        elif not segment.rst:
            # No flow owns this segment and no listener wants it:
            # answer with RST (RFC 793) so the sender learns immediately
            # (connection refused) instead of retrying into silence.
            self._send_rst_for(segment)

    def _send_rst_for(self, segment: TcpSegment) -> None:
        if segment.has_ack:
            rst = TcpSegment(
                src_ip=segment.dst_ip, dst_ip=segment.src_ip,
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=segment.ack, flags=FLAG_RST, window=0,
            )
        else:
            rst = TcpSegment(
                src_ip=segment.dst_ip, dst_ip=segment.src_ip,
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=0,
                ack=seq_add(segment.seq, segment.seq_space),
                flags=FLAG_RST | FLAG_ACK,
                window=0,
            )
        self.counters["rsts_sent"] += 1
        self._transmit_ip(rst, rst.dst_ip)

    def _post_message(self, kind: str, flow_id: int, value: int = 0) -> None:
        """Queue a message for the host."""
        self.host_messages.append(EngineMessage(kind, flow_id, value))
        self.msg_epoch += 1
        if self.trace is not None:
            # ``thread=0`` is kept: trace fingerprints hash the detail.
            self.trace.emit(
                self.time_ps, "host", f"{self.trace_name}/hostq", "msg",
                flow_id, f"{kind} thread=0 value={value}",
            )

    def _apply_notification(self, kind: NoteKind, flow_id: int, value: int) -> None:
        record = self.flows.get(flow_id)
        if kind is NoteKind.ACKED:
            if record is not None:
                record.stream.release(value)
            self._post_message("acked", flow_id, value)
        elif kind is NoteKind.CONNECTED:
            self._post_message("connected", flow_id)
        elif kind is NoteKind.ACCEPTED:
            if record is not None and record.listen_port is not None:
                self.listening[record.listen_port].append(flow_id)
            self._post_message("accepted", flow_id)
            self.counters["connections_accepted"] += 1
        elif kind is NoteKind.PEER_FIN:
            self._post_message("eof", flow_id, value)
        elif kind is NoteKind.CLOSED:
            self._post_message("closed", flow_id)
            self._teardown_flow(flow_id)
        elif kind is NoteKind.RESET:
            self._post_message("reset", flow_id)
            self._teardown_flow(flow_id)

    def _teardown_flow(self, flow_id: int) -> None:
        record = self.flows.get(flow_id)
        if record is None or record.closed:
            return
        record.closed = True
        self.timers.cancel(flow_id)
        self.scheduler.deregister_flow(flow_id)
        self.rx_parser.deregister_flow(record.key, flow_id)
        self._keys_in_use.discard(record.key)
        del self.flows[flow_id]
        self.counters["flows_closed"] += 1

    def _drain_rx_notifications(self) -> None:
        for note in self.rx_parser.drain_notifications():
            kind = "eof" if note.eof else "data"
            self._post_message(kind, note.flow_id, note.readable_pointer)

    # ------------------------------------------------------------ transmit
    def _transmit_directives(self, tcb: Tcb, directives: Sequence[TxDirective]) -> None:
        """One FPU pass's segments onto the wire: one frame each, built
        here with its known size when the peer's MAC is resolved."""
        mss = tcb.mss or self.config.mss
        sack_blocks = None
        rx_state = self.rx_parser.rx_states.get(tcb.flow_id)
        if rx_state is not None and rx_state.reassembly.out_of_order_chunks:
            # RFC 2018: advertise our out-of-order holdings so the peer
            # retransmits only the holes.
            sack_blocks = rx_state.reassembly.chunk_boundaries()[:3]
        port = self.port
        now_ps = self.cycle * ENGINE_PERIOD_PS
        for directive in directives:
            segments = self.packet_gen.generate(directive, mss, sack_blocks)
            if not segments:
                continue
            # TcpSegment.wire_length, once per directive: its segments
            # share its options (most directives carry none).
            options = directive.options
            overhead = PACKET_OVERHEAD + (
                0 if options is None else len(options.encode())
            )
            # A directive's segments share its flow's next hop.
            dst_mac = None if port is None else self.arp.resolve(segments[0].dst_ip)
            for segment in segments:
                if self.trace is not None:
                    flow_id = self.rx_parser.lookup(segment.flow_key)
                    self.trace.emit(
                        now_ps, "engine.tx", f"{self.trace_name}/tx", "tx",
                        flow_id if flow_id is not None else -1,
                        f"{segment.flag_names()} seq={segment.seq} "
                        f"ack={segment.ack} len={len(segment.payload)}",
                    )
                if dst_mac is None:
                    self._transmit_ip(segment, segment.dst_ip)
                else:
                    port.send(
                        EthernetFrame(
                            self.mac, dst_mac, ETHERTYPE_IPV4, segment,
                            overhead + len(segment.payload),
                        ),
                        now_ps,
                    )
            sent = len(segments)
            counts = self.counters
            counts["packets_sent"] += sent
            if directive.retransmission:
                counts["retransmissions"] += sent

    def _transmit_ip(self, packet, dst_ip: int) -> None:
        if self.port is None:
            return
        dst_mac = self.arp.resolve(dst_ip)
        if dst_mac is None:
            request = self.arp.queue_until_resolved(dst_ip, packet, self.time_ps)
            if request is not None:
                self.port.send(request, self.time_ps)
            return
        self._send_ipv4(packet, dst_mac)

    def _send_ipv4(self, packet, dst_mac: int) -> None:
        frame = EthernetFrame(
            src_mac=self.mac,
            dst_mac=dst_mac,
            ethertype=ETHERTYPE_IPV4,
            payload=packet,
        )
        self.port.send(frame, self.time_ps)

    # ---------------------------------------------------------- statistics
    def stats_report(self) -> Dict[str, object]:
        """Aggregate statistics from every module, for dashboards/demos."""
        return {
            "engine": dict(self.counters),
            "scheduler": {
                "events_submitted": self.scheduler.events_submitted,
                "events_coalesced": self.scheduler.events_coalesced,
                "events_routed": self.scheduler.events_routed,
                "evictions": self.scheduler.evictions,
                "swap_ins": self.scheduler.swap_ins,
                "pending_retries": self.scheduler.pending_retries,
                "congestion_migrations": self.scheduler.congestion_migrations,
            },
            "fpcs": {
                fpc.name: {
                    "flows": fpc.flow_count,
                    "events_accepted": fpc.events_accepted,
                    "tcbs_processed": fpc.tcbs_processed,
                }
                for fpc in self.fpcs
            },
            "memory_manager": {
                "flows": self.memory_manager.flow_count,
                "events_handled": self.memory_manager.events_handled,
                "cache_hits": self.memory_manager.cache_hits,
                "cache_misses": self.memory_manager.cache_misses,
                "dram_bytes": self.dram.bytes_transferred,
            },
            "tcb_cache": self.memory_manager.cache.stats(),
            "flow_table": self.rx_parser.flow_table.metrics(),
            "rx_parser": {
                "packets_parsed": self.rx_parser.packets_parsed,
                "out_of_order": self.rx_parser.out_of_order_packets,
                "dup_acks": self.rx_parser.dup_acks_detected,
                "dropped_no_flow": self.rx_parser.packets_dropped_no_flow,
            },
            "packet_generator": {
                "packets": self.packet_gen.packets_generated,
                "bytes": self.packet_gen.bytes_generated,
                "mss_splits": self.packet_gen.splits,
            },
            "arp": {
                "requests_sent": self.arp.requests_sent,
                "replies_sent": self.arp.replies_sent,
                "pending_dropped": self.arp.pending_dropped,
            },
        }

    # ------------------------------------------------------------ host I/O
    def drain_host_messages(self) -> List[EngineMessage]:
        """Take every message the host has not read yet."""
        messages = list(self.host_messages)
        self.host_messages.clear()
        if messages:
            self.msg_epoch += 1
        return messages


def _event_detail(event: TcpEvent) -> str:
    """The human-readable payload of an ``event`` trace record."""
    parts = []
    if event.req is not None:
        parts.append(f"req={event.req}")
    if event.ack is not None:
        parts.append(f"ack={event.ack}")
    if event.rcv_nxt is not None:
        parts.append(f"rcv_nxt={event.rcv_nxt}")
    if event.dup_incr:
        parts.append("dupack")
    for flag in ("syn", "fin", "rst", "timeout", "connect", "close"):
        if getattr(event, flag):
            parts.append(flag)
    return f"{event.kind.value} {' '.join(parts)}".strip()
