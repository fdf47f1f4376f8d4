"""FtEngine: the full FPGA TCP accelerator, assembled (§4.1.2, Fig 3).

The engine bundles the control path (scheduler, FPCs, memory manager,
timers), the TX data path (packet generator), the RX data path (parser
with cuckoo flow lookup and logical reassembly), and ARP/ICMP.  It is a
clocked component: one :meth:`tick` is one 250 MHz cycle.

The host-facing API (``connect`` / ``listen`` / ``send_data`` /
``recv_data`` / ``close_flow``) models the 16 B command interface the
F4T library uses (§4.1.1); notifications flowing back to the software
are queued as :class:`EngineMessage` objects that the library drains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from collections import deque

from ..net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
    make_mac,
)
from ..mem.advisor import POLICY_PREDICTIVE, FlowHeat
from ..mem.hierarchy import CacheGeometry
from ..mem.sketch import make_sketch
from ..net.wire import WirePort
from ..sim.component import NEVER, Component
from ..sim.stats import Counters
from ..tcp.segment import FLAG_ACK, FLAG_RST, FlowKey, TcpSegment, ip_to_string
from ..tcp.seq import SEQ_MOD, seq_add
from ..tcp.state_machine import TcpState
from ..tcp.tcb import DEFAULT_BUFFER_BYTES, DEFAULT_MSS, Tcb
from ..tcp.timers import TimerWheel
from .arp import ArpMessage, ArpModule
from .buffers import SendStream
from .events import (
    EventKind,
    TcpEvent,
    timeout_event,
    user_recv_event,
    user_send_event,
)
from .fpc import FlowProcessingCore
from .fpu import NoteKind, ProcessResult, TimerOp
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

#: Source ports an active open may take, and where the first one starts.
_PORT_MIN, _PORT_MAX = 1024, 65535
_PORT_COUNT = _PORT_MAX - _PORT_MIN + 1
_EPHEMERAL_BASE = 40000


def first_cycle_at(time_s: float) -> int:
    """First cycle on which a per-cycle ``now_s >= time_s`` test holds.

    Guarded search around the analytic guess: ``now_s``'s own float
    expression decides, so a horizon lands on the identical cycle the
    per-cycle loop would — an analytic ceil alone can be off by one at
    float boundaries.
    """
    k = max(0, int(time_s * 1e12 / ENGINE_PERIOD_PS))
    while time_s > (k * ENGINE_PERIOD_PS) / 1e12:
        k += 1
    while k > 0 and time_s <= ((k - 1) * ENGINE_PERIOD_PS) / 1e12:
        k -= 1
    return k


@dataclass
class FtEngineConfig:
    """Reference design parameters (§4.4.2, §4.7)."""

    num_fpcs: int = 8
    fpc_slots: int = 128
    algorithm: str = "newreno"
    #: 'hbm' (460 GB/s) or 'ddr4' (38 GB/s) for the TCB store (§4.7).
    memory: str = "hbm"
    coalescing: bool = True
    mss: int = DEFAULT_MSS
    send_buffer: int = DEFAULT_BUFFER_BYTES
    recv_buffer: int = DEFAULT_BUFFER_BYTES
    tcb_cache_entries: int = 512
    #: repro.mem TCB cache geometry spec (e.g. "128x4:lru/1024x1:direct");
    #: None = one direct-mapped level of ``tcb_cache_entries`` sets, the
    #: paper-faithful default the pinned fingerprints assume.
    cache_geometry: Optional[str] = None
    #: 'reactive' (paper: migrate on observed congestion) or
    #: 'predictive' (sketch-driven heavy-hitter placement).
    placement_policy: str = "reactive"
    #: Frequency sketch kind/width backing freq eviction and the
    #: predictive policy ('countmin' | 'spacesaving' | 'exact').
    sketch: str = "countmin"
    sketch_width: int = 1024

    @property
    def sram_flow_capacity(self) -> int:
        return self.num_fpcs * self.fpc_slots


@dataclass
class EngineMessage:
    """A command FtEngine sends up to the software stack (§4.1.1)."""

    kind: str  # 'acked' | 'connected' | 'accepted' | 'data' | 'eof' | 'closed' | 'reset'
    flow_id: int
    value: int = 0


@dataclass
class _FlowRecord:
    """Engine-side per-flow metadata outside the TCB."""

    key: FlowKey
    stream: SendStream
    listen_port: Optional[int] = None  # set for passively opened flows
    closed: bool = False


class FtEngine(Component):
    """One FtEngine instance attached to one wire port."""

    _ids = itertools.count(1)

    def __init__(
        self,
        ip: int,
        config: Optional[FtEngineConfig] = None,
        port: Optional[WirePort] = None,
        name: Optional[str] = None,
    ) -> None:
        node_id = next(self._ids)
        super().__init__(name or f"ftengine{node_id}")
        self.ip = ip
        self.mac = make_mac(node_id)
        self.config = config or FtEngineConfig()
        self.port = port

        dram = DRAMModel.hbm() if self.config.memory == "hbm" else DRAMModel.ddr4()
        self.dram = dram

        # repro.mem wiring: one shared sketch backs both the cache's
        # freq eviction and the scheduler's FlowHeat advisor.  In the
        # default config (reactive policy, direct geometry) nothing is
        # built and the hot path is exactly the paper's.
        geometry = (
            None
            if self.config.cache_geometry is None
            else CacheGeometry.parse(self.config.cache_geometry)
        )
        predictive = self.config.placement_policy == POLICY_PREDICTIVE
        needs_sketch = predictive or (geometry is not None and geometry.uses_sketch)
        sketch = (
            make_sketch(self.config.sketch, width=self.config.sketch_width)
            if needs_sketch
            else None
        )
        # The blocks' time sources, one call deep (they run under every
        # event): the same expressions as the properties below.
        def time_ps() -> int:
            return self.cycle * ENGINE_PERIOD_PS

        def now_s() -> float:
            return self.cycle * ENGINE_PERIOD_PS / 1e12

        self.flow_heat = FlowHeat(sketch) if predictive else None
        if self.flow_heat is not None:
            self.flow_heat.time_ps_fn = time_ps

        self.memory_manager = MemoryManager(
            dram,
            cache_entries=self.config.tcb_cache_entries,
            geometry=geometry,
            sketch=sketch,
            # The advisor records every submitted event; the cache must
            # not feed the same sketch again on each access.
            sketch_own_updates=self.flow_heat is None,
            clock=self,
        )
        self.fpcs = [
            FlowProcessingCore(
                i,
                slots=self.config.fpc_slots,
                algorithm=self.config.algorithm,
                now_fn=now_s,
                clock=self,
            )
            for i in range(self.config.num_fpcs)
        ]
        self.scheduler = Scheduler(
            self.fpcs,
            self.memory_manager,
            coalescing=self.config.coalescing,
            flow_heat=self.flow_heat,
            placement_policy=self.config.placement_policy,
            clock=self,
        )
        self.timers = TimerWheel()
        self.arp = ArpModule(self.mac, ip)
        self.icmp = IcmpModule(ip)
        self.rx_parser = RxParser(
            now_fn=now_s,
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
        #: port -> per-thread accept queues (SO_REUSEPORT, §4.6).
        self.listening: Dict[int, Dict[int, Deque[int]]] = {}
        self._next_flow_id = 0
        self._next_ephemeral_port = _EPHEMERAL_BASE

        #: Events that could not enter the scheduler yet (backpressure).
        self._event_backlog: Deque[TcpEvent] = deque()
        #: Per-thread message queues: receive-side scaling keeps all of
        #: a flow's commands on one queue for cache locality (§4.6).
        self.host_messages: Dict[int, Deque[EngineMessage]] = {0: deque()}
        #: Bumped on every host-queue mutation (post or drain) so
        #: pollers can skip rescanning untouched queues.
        self.msg_epoch = 0
        self._flow_thread: Dict[int, int] = {}
        self._accept_rr: Dict[int, int] = {}  # per-port round-robin index

        self.counters = Counters()

        #: Horizon memos: the cycle a timer hint / a wire arrival falls
        #: on only changes when the hint / the head frame does.
        self._timer_memo = (math.inf, NEVER)
        self._arrival_memo = (None, NEVER)

        #: Observability (repro.obs): a TraceBus, or None — the default —
        #: which keeps every emit site at one attribute test of cost.
        self.trace = None
        self.trace_name = self.name
        self._trace_last_state: Dict[int, TcpState] = {}

    # ------------------------------------------------------------- threads
    def register_thread(self, thread_id: int) -> None:
        """Attach an application thread (its own queues, §4.6)."""
        self.host_messages.setdefault(thread_id, deque())
        for queues in self.listening.values():
            queues.setdefault(thread_id, deque())

    @property
    def registered_threads(self) -> List[int]:
        return sorted(self.host_messages)

    def thread_of_flow(self, flow_id: int) -> int:
        return self._flow_thread.get(flow_id, 0)

    def _assign_flow_to_thread(self, flow_id: int, thread_id: int) -> None:
        self._flow_thread[flow_id] = thread_id

    # ---------------------------------------------------------------- time
    @property
    def time_ps(self) -> int:
        return self.cycle * ENGINE_PERIOD_PS

    @property
    def now_s(self) -> float:
        return self.cycle * ENGINE_PERIOD_PS / 1e12

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
            last_active=self.now_s,
        )
        self.flows[flow_id] = _FlowRecord(
            key=key,
            stream=SendStream(seq_add(iss, 1), self.config.send_buffer),
            listen_port=listen_port,
        )
        self._keys_in_use.add(key)
        self.rx_parser.register_flow(key, flow_id, rcv_nxt=0)
        self.scheduler.register_new_flow(tcb)
        self.counters.add("flows_created")
        return flow_id

    def _alloc_key(self, dst_ip: int, dst_port: int) -> FlowKey:
        """The next free 4-tuple towards a destination: source ports run
        on from the last one handed out, wrap inside the valid range
        and skip any still held by a live flow (as ``SoftStack`` does)."""
        port = self._next_ephemeral_port
        for _ in range(_PORT_COUNT):
            key = FlowKey(self.ip, port, dst_ip, dst_port)
            port = port + 1 if port < _PORT_MAX else _PORT_MIN
            if key not in self._keys_in_use:
                self._next_ephemeral_port = port
                return key
        raise OSError(
            f"engine {self.name}: no free source port towards "
            f"{ip_to_string(dst_ip)}:{dst_port} — all "
            f"{_PORT_COUNT} 4-tuples are held by live flows"
        )

    def connect(
        self,
        dst_ip: int,
        dst_port: int,
        src_port: Optional[int] = None,
        thread_id: int = 0,
    ) -> int:
        """Active open; returns the flow ID immediately (SYN in flight)."""
        if src_port is None:
            key = self._alloc_key(dst_ip, dst_port)
        else:
            key = FlowKey(self.ip, src_port, dst_ip, dst_port)
        flow_id = self._create_flow(key)
        self._assign_flow_to_thread(flow_id, thread_id)
        self._submit(
            TcpEvent(
                EventKind.USER_REQ, flow_id, connect=True, timestamp=self.now_s
            )
        )
        return flow_id

    def listen(self, port: int) -> None:
        """Open a passive listening port with per-thread accept queues."""
        queues = self.listening.setdefault(port, {})
        for thread_id in self.registered_threads:
            queues.setdefault(thread_id, deque())

    def accept(self, port: int, thread_id: int = 0) -> Optional[int]:
        """Pop an established connection from this thread's accept queue.

        SO_REUSEPORT semantics (§4.6): new connections are distributed
        evenly across the registered threads' queues.
        """
        queues = self.listening.get(port)
        if not queues:
            return None
        queue = queues.get(thread_id)
        if not queue:
            return None
        return queue.popleft()

    def _passive_open(self, segment: TcpSegment) -> Optional[int]:
        """RX-parser callback: a SYN arrived for a port we listen on."""
        if segment.dst_ip != self.ip or segment.dst_port not in self.listening:
            return None
        key = segment.flow_key.reversed()  # local view: we are the source
        flow_id = self._create_flow(key, listen_port=segment.dst_port)
        self.counters.add("passive_opens")
        return flow_id

    # --------------------------------------------------------- socket data
    def send_data(self, flow_id: int, data: bytes) -> int:
        """Buffer ``data`` and submit the new request pointer (§4.2.1).

        Returns the number of bytes accepted (bounded by buffer room);
        the library implements blocking/EAGAIN on top of this.
        """
        record = self.flows.get(flow_id)
        if record is None:
            raise KeyError(f"unknown flow {flow_id}")
        accept = min(len(data), record.stream.room)
        if accept == 0:
            return 0
        pointer = record.stream.append(data[:accept])
        self._submit(user_send_event(flow_id, pointer, self.now_s))
        self.counters.add("send_requests")
        return accept

    def readable(self, flow_id: int) -> int:
        return self.rx_parser.readable(flow_id)

    def recv_data(self, flow_id: int, nbytes: int) -> bytes:
        """Read reassembled in-order data; advances the rcv_user pointer."""
        data = self.rx_parser.read(flow_id, nbytes)
        if data:
            state = self.rx_parser.rx_states.get(flow_id)
            # rcv_user = rcv_nxt - still-readable: everything consumed.
            if state is not None:
                consumed_upto = seq_add(
                    state.reassembly.rcv_nxt, -state.reassembly.readable
                )
                self._submit(
                    user_recv_event(flow_id, consumed_upto, self.now_s)
                )
            self.counters.add("recv_calls")
        return data

    def close_flow(self, flow_id: int) -> None:
        record = self.flows.get(flow_id)
        if record is None or record.closed:
            return
        self._submit(
            TcpEvent(
                EventKind.USER_REQ, flow_id, close=True, timestamp=self.now_s
            )
        )
        self.counters.add("close_requests")

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

    def _drain_backlog(self) -> None:
        while self._event_backlog:
            if not self.scheduler.submit(self._event_backlog[0]):
                break
            self._event_backlog.popleft()

    # ---------------------------------------------------------------- tick
    def next_work_cycle(self) -> Optional[int]:
        """The exact cycle at which :meth:`tick` next does work.

        None means nothing is scheduled at all (quiet forever, absent
        external input).  Exact as long as nothing external — a wire
        send from the peer, a host API call — happens before the
        returned cycle, so whoever caches the value recomputes it after
        this engine's own tick and after a host call, and folds
        :meth:`next_arrival_cycle` in after the peer's tick.  What the
        very next tick would consume (backlog, RX notifications)
        reports ``cycle + 1``; the rest is a minimum over cycles of this
        engine's clock that the blocks keep current — the scheduler's,
        the memory manager's and the FPCs' ``next_action`` — plus timer
        expiry and wire arrivals.
        """
        cycle = self.cycle
        if self._event_backlog or self.rx_parser.notifications:
            return cycle + 1
        best = self.memory_manager.next_action
        if self.port is not None:
            in_flight = self.port._inbound._in_flight
            if in_flight:
                # next_arrival_cycle(), its memo read in place.
                memo_ps, due = self._arrival_memo
                if in_flight[0][0] != memo_ps:
                    due = self.next_arrival_cycle()
                if due < best:
                    best = due
        if self.scheduler.next_action < best:
            best = self.scheduler.next_action
        for fpc in self.fpcs:
            if fpc.next_action < best:
                best = fpc.next_action
        hint_s = self.timers.earliest_hint
        if hint_s != math.inf:
            memo_s, c = self._timer_memo
            if hint_s != memo_s:
                c = first_cycle_at(hint_s)
                self._timer_memo = (hint_s, c)
            if c < best:
                best = c
        if best <= cycle:
            return cycle + 1
        return None if best == NEVER else best

    def next_arrival_cycle(self) -> int:
        """First cycle whose wire poll delivers a frame; NEVER if none.

        The one term of :meth:`next_work_cycle` the peer's tick can
        move: a frame sent at cycle *c* arrives strictly after *c*.
        """
        if self.port is None:
            return NEVER
        in_flight = self.port._inbound._in_flight
        if not in_flight:
            return NEVER
        arrival_ps = in_flight[0][0]
        memo_ps, k = self._arrival_memo
        if arrival_ps != memo_ps:
            # Guarded like first_cycle_at, against the poll's own
            # integer-picosecond comparison.
            k = int(arrival_ps // ENGINE_PERIOD_PS)
            while k * ENGINE_PERIOD_PS < arrival_ps:
                k += 1
            while k > 0 and (k - 1) * ENGINE_PERIOD_PS >= arrival_ps:
                k -= 1
            self._arrival_memo = (arrival_ps, k)
        return k if k > self.cycle else self.cycle + 1

    def advance_cycles(self, n: int) -> None:
        """Skip ``n`` quiet cycles: what ``n`` no-op ticks come to.

        Every block reads this clock, so there is nothing else to move.
        The caller proves quietness first: ``n`` must stop short of
        :meth:`next_work_cycle`.
        """
        self.cycle += n

    def tick(self) -> None:
        # Hot path: a block is called only on a cycle its ``next_action``
        # names; short of that its tick is a no-op.
        cycle = self.cycle + 1
        self.cycle = cycle
        if self.timers.earliest_hint <= cycle * ENGINE_PERIOD_PS / 1e12:
            self._expire_timers()
        if self._event_backlog:
            self._drain_backlog()
        port = self.port
        if port is not None:
            in_flight = port._inbound._in_flight
            if in_flight and in_flight[0][0] <= cycle * ENGINE_PERIOD_PS:
                self._poll_wire()
        if self.scheduler.next_action <= cycle:
            self.scheduler.tick()
        if self.memory_manager.next_action <= cycle:
            self.memory_manager.tick()
        for fpc in self.fpcs:
            if fpc.next_action <= cycle:
                fpc.tick()
                if fpc.out_results:
                    self._drain_one_fpc(fpc)
        if self.rx_parser.notifications:
            self._drain_rx_notifications()

    def _drain_one_fpc(self, fpc) -> None:
        """Apply what an FPC's tick produced.  (A TCB it evicted stays
        queued on the FPC: the scheduler, woken by it, collects it.)"""
        for result in fpc.drain_results():
            if self.trace is not None:
                self._trace_fpu(fpc, result)
            self._apply_result(result)

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
        if self.timers.earliest_hint > self.now_s:
            return
        for flow_id in self.timers.expire(self.now_s):
            if flow_id in self.flows:
                self._submit(timeout_event(flow_id, self.now_s))
                self.counters.add("timeouts_fired")

    def _poll_wire(self) -> None:
        if self.port is None:
            return
        for frame in self.port.poll(self.time_ps):
            self._handle_frame(frame)

    def _handle_frame(self, frame: EthernetFrame) -> None:
        if frame.ethertype == ETHERTYPE_ARP:
            reply, released = self.arp.handle(frame.payload)
            if reply is not None:
                self.port.send(reply, self.time_ps)
            for dst_mac, packet in released:
                self._send_ipv4(packet, dst_mac)
            return
        payload = frame.payload
        if isinstance(payload, IcmpMessage):
            reply = self.icmp.handle(payload)
            if reply is not None:
                self._transmit_ip(reply, reply.dst_ip)
            return
        if isinstance(payload, (bytes, bytearray)):
            try:
                payload = TcpSegment.from_bytes(bytes(payload))
            except ValueError:
                # Corrupted or malformed on the wire: checksum rejected.
                self.counters.add("packets_corrupt_dropped")
                return
        self.counters.add("packets_received")
        event = self.rx_parser.parse(payload)
        if event is not None:
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps, "engine.rx", f"{self.trace_name}/rx",
                    "rx", event.flow_id,
                    f"{payload.flag_names()} seq={payload.seq} "
                    f"ack={payload.ack} len={len(payload.payload)}",
                )
            self._submit(event)
        elif not payload.rst:
            # No flow owns this segment and no listener wants it:
            # answer with RST (RFC 793) so the sender learns immediately
            # (connection refused) instead of retrying into silence.
            self._send_rst_for(payload)

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
        self.counters.add("rsts_sent")
        self._transmit_ip(rst, rst.dst_ip)

    def _apply_result(self, result: ProcessResult) -> None:
        tcb = result.tcb
        if result.timer is TimerOp.ARM:
            self.timers.arm(tcb.flow_id, result.timer_deadline)
        elif result.timer is TimerOp.CANCEL:
            self.timers.cancel(tcb.flow_id)

        # Directives first: a CLOSED notification tears the flow down,
        # and the final ACK must still make it out.
        mss = tcb.mss or self.config.mss
        sack_blocks = None
        rx_state = self.rx_parser.rx_states.get(tcb.flow_id)
        if rx_state is not None and rx_state.reassembly.out_of_order_chunks:
            # RFC 2018: advertise our out-of-order holdings so the peer
            # retransmits only the holes.
            sack_blocks = rx_state.reassembly.chunk_boundaries()[:3]
        for directive in result.directives:
            for segment in self.packet_gen.generate(directive, mss, sack_blocks):
                self._transmit_segment(segment)
                self.counters.add("packets_sent")
                if directive.retransmission:
                    self.counters.add("retransmissions")

        for note in result.notifications:
            self._apply_notification(note.kind, note.flow_id, note.value)

    def _post_message(self, kind: str, flow_id: int, value: int = 0) -> None:
        """Queue a message on the flow's thread (receive-side scaling)."""
        thread_id = self._flow_thread.get(flow_id, 0)
        queue = self.host_messages.get(thread_id)
        if queue is None:
            queue = self.host_messages[0]
        queue.append(EngineMessage(kind, flow_id, value))
        self.msg_epoch += 1
        if self.trace is not None:
            self.trace.emit(
                self.time_ps, "host", f"{self.trace_name}/hostq", "msg",
                flow_id, f"{kind} thread={thread_id} value={value}",
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
                # SO_REUSEPORT: distribute new flows evenly over the
                # registered threads' accept queues (§4.6).
                threads = self.registered_threads
                index = self._accept_rr.get(record.listen_port, 0)
                thread_id = threads[index % len(threads)]
                self._accept_rr[record.listen_port] = index + 1
                self._assign_flow_to_thread(flow_id, thread_id)
                self.listening[record.listen_port].setdefault(
                    thread_id, deque()
                ).append(flow_id)
            self._post_message("accepted", flow_id)
            self.counters.add("connections_accepted")
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
        self._flow_thread.pop(flow_id, None)
        self.counters.add("flows_closed")

    def _drain_rx_notifications(self) -> None:
        for note in self.rx_parser.drain_notifications():
            kind = "eof" if note.eof else "data"
            self._post_message(kind, note.flow_id, note.readable_pointer)

    # ------------------------------------------------------------ transmit
    def _transmit_segment(self, segment: TcpSegment) -> None:
        if self.trace is not None:
            flow_id = self.rx_parser.lookup(segment.flow_key)
            self.trace.emit(
                self.time_ps, "engine.tx", f"{self.trace_name}/tx", "tx",
                flow_id if flow_id is not None else -1,
                f"{segment.flag_names()} seq={segment.seq} "
                f"ack={segment.ack} len={len(segment.payload)}",
            )
        self._transmit_ip(segment, segment.dst_ip)

    def _transmit_ip(self, packet, dst_ip: int) -> None:
        if self.port is None:
            return
        dst_mac = self.arp.resolve(dst_ip)
        if dst_mac is None:
            request = self.arp.queue_until_resolved(dst_ip, packet, self.now_s)
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
            "engine": self.counters.as_dict(),
            "scheduler": {
                "events_submitted": self.scheduler.events_submitted,
                "events_coalesced": self.scheduler.events_coalesced,
                "events_routed": self.scheduler.events_routed,
                "evictions": self.scheduler.evictions,
                "swap_ins": self.scheduler.swap_ins,
                "pending_retries": self.scheduler.pending_retries,
                "congestion_migrations": self.scheduler.congestion_migrations,
                "migrations_declined_hot": self.scheduler.migrations_declined_hot,
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
            "tcb_cache": {
                "geometry": self.memory_manager.cache.geometry.render(),
                **self.memory_manager.cache.stats(),
            },
            "flow_table": self.rx_parser.flow_table.metrics(),
            "flow_heat": (
                self.flow_heat.stats() if self.flow_heat is not None else {}
            ),
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
            },
        }

    # ------------------------------------------------------------ host I/O
    def drain_host_messages(self, thread_id: int = 0) -> List[EngineMessage]:
        """Drain one thread's completion messages (per-thread queues, §4.6)."""
        queue = self.host_messages.get(thread_id)
        if queue is None:
            return []
        messages = list(queue)
        queue.clear()
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
