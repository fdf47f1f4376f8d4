"""A deterministic output-queued switch with shared-buffer contention.

N hosts attach through full-duplex links; every packet crosses one
uplink (serialization + propagation), is admitted against a shared
packet buffer, queues at its destination's output port, and leaves
through the egress serializer (+ propagation).  The three contended
resources that make fabric scenarios interesting — egress bandwidth,
shared buffer, and the admission policy arbitrating it — are all here:

* **Buffer partitioning** (``SwitchConfig.partition``): ``shared``
  (one pool, first come first buffered), ``static`` (hard per-output
  slice), or ``dynamic`` (classic dynamic-threshold: a port may hold at
  most ``alpha x`` the *remaining free* buffer, so hot ports are
  throttled while idle ports' share stays reclaimable).
* **Queueing** (``SwitchConfig.queueing``): per-output ``fifo``, or
  ``drr`` — deficit-round-robin across source hosts, an approximate
  fair-queueing discipline that stops one heavy sender from starving
  the rest of an incast.
* **ECN hook** (``SwitchConfig.ecn_threshold_bytes``): packets enqueued
  above the threshold are CE-marked; the soft stacks echo the mark and
  halve their windows — DCTCP-flavored, deliberately minimal.

Everything is integer picoseconds and integer bytes; events sit on one
``(time_ps, ingress-before-egress, port)`` heap and are processed in
that total order, so one seed replays one run bit for bit (the switch
itself has *no* RNG at all) and an instant costs what is due at it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from ..net.link import LINK_100G, Link
from ..tcp.segment import ip_from_string
from .softstack import FabricPacket, _IntDirection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..check.lockstep import LockstepSanitizer

#: First host IP; host ``i`` is ``_BASE_IP + i`` (plain int arithmetic).
_BASE_IP = ip_from_string("10.0.0.1")

#: Event kinds, the middle field of the heap key: at one instant every
#: ingress admission sorts before any egress start.
_INGRESS, _EGRESS = 0, 1


def _take_due(queue: Deque[Tuple[int, FabricPacket]], now_ps: int) -> List[FabricPacket]:
    """Pop one host's deliveries that have arrived by ``now_ps``."""
    due: List[FabricPacket] = []
    while queue and queue[0][0] <= now_ps:
        due.append(queue.popleft()[1])
    return due


def _pop_due_hosts(arrivals: List[Tuple[int, int]], now_ps: int) -> Set[int]:
    """Pop the ``(arrival_ps, host)`` heap up to ``now_ps``: the hosts
    with a delivery due (reported once — the caller polls them)."""
    hosts: Set[int] = set()
    while arrivals and arrivals[0][0] <= now_ps:
        hosts.add(heapq.heappop(arrivals)[1])
    return hosts


@dataclass(frozen=True)
class SwitchConfig:
    """Knobs for the output-queued shared-buffer switch."""

    #: Total packet buffer shared by all output queues.
    buffer_bytes: int = 1 << 21
    #: ``shared`` | ``static`` | ``dynamic`` (dynamic-threshold).
    partition: str = "dynamic"
    #: Dynamic-threshold alpha in eighths (8 = 1.0), kept integral so
    #: admission math never leaves integer bytes.
    dt_alpha_x8: int = 8
    #: ``fifo`` | ``drr`` (deficit round robin across source hosts).
    queueing: str = "fifo"
    #: DRR quantum per visit (bytes on the wire).
    drr_quantum_bytes: int = 3076
    #: CE-mark packets enqueued above this depth; 0 disables ECN.
    ecn_threshold_bytes: int = 0
    #: Host-to-switch and switch-to-host link (both directions).
    link: Link = field(default_factory=lambda: LINK_100G)

    def validate(self) -> None:
        if self.partition not in ("shared", "static", "dynamic"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.queueing not in ("fifo", "drr"):
            raise ValueError(f"unknown queueing {self.queueing!r}")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.dt_alpha_x8 <= 0:
            raise ValueError("dt_alpha_x8 must be positive")


class _OutputQueue:
    """One egress port's queue: FIFO, or DRR over per-source queues."""

    def __init__(self, config: SwitchConfig) -> None:
        self._drr = config.queueing == "drr"
        self._quantum = config.drr_quantum_bytes
        #: FIFO mode: one deque of packets.
        self._fifo: Deque[FabricPacket] = deque()
        #: DRR mode: per-source deques plus the active rotation.
        self._per_src: Dict[int, Deque[FabricPacket]] = {}
        self._active: Deque[int] = deque()
        self._deficit: Dict[int, int] = {}
        self.queued_bytes = 0
        self.queued_packets = 0

    def push(self, packet: FabricPacket, src: int) -> None:
        if self._drr:
            queue = self._per_src.get(src)
            if queue is None:
                queue = self._per_src[src] = deque()
            if not queue:
                self._active.append(src)
                self._deficit[src] = 0
            queue.append(packet)
        else:
            self._fifo.append(packet)
        self.queued_bytes += packet.wire_bytes
        self.queued_packets += 1

    def pop(self) -> FabricPacket:
        """Dequeue the next packet per the discipline."""
        if not self._drr:
            packet = self._fifo.popleft()
        else:
            while True:
                src = self._active[0]
                queue = self._per_src[src]
                head_bytes = queue[0].wire_bytes
                if self._deficit[src] >= head_bytes:
                    self._deficit[src] -= head_bytes
                    packet = queue.popleft()
                    if not queue:
                        self._active.popleft()
                        self._deficit[src] = 0
                    break
                # Not enough deficit: top up and move to the next source.
                self._deficit[src] += self._quantum
                self._active.rotate(-1)
        self.queued_bytes -= packet.wire_bytes
        self.queued_packets -= 1
        return packet


class _FabricPort:
    """One host's NIC-side handle on the fabric (SoftPort-shaped)."""

    def __init__(self, fabric: "SwitchFabric", index: int) -> None:
        self._fabric = fabric
        self._index = index

    def send(self, packet: FabricPacket, now_ps: int) -> None:
        fabric = self._fabric
        arrival = fabric._uplinks[self._index].transmit(packet, now_ps)
        if arrival is not None:
            heapq.heappush(fabric._events, (arrival, _INGRESS, self._index))

    def poll(self, now_ps: int) -> List[FabricPacket]:
        """Packets the switch (advanced by the event loop) delivered."""
        return _take_due(self._fabric._delivery[self._index], now_ps)


class SwitchFabric:
    """N host ports around one output-queued shared-buffer switch."""

    def __init__(self, num_hosts: int, config: Optional[SwitchConfig] = None) -> None:
        if num_hosts < 2:
            raise ValueError("a fabric needs at least 2 hosts")
        self.config = config or SwitchConfig()
        self.config.validate()
        self.num_hosts = num_hosts
        link = self.config.link
        self._uplinks = [_IntDirection(link, None) for _ in range(num_hosts)]
        self._queues = [_OutputQueue(self.config) for _ in range(num_hosts)]
        self._egress_free_ps = [0] * num_hosts
        self._egress_prop_ps = int(link.propagation_delay_us * 10**6)
        self._bits_per_s = int(link.bandwidth_gbps * 1e9)
        #: The event heap: ``(time_ps, kind, port)``.  An ingress entry
        #: is pushed when an uplink transmit fixes an arrival; a port
        #: with queued packets has exactly one scheduled egress start.
        self._events: List[Tuple[int, int, int]] = []
        self.events_popped = 0
        #: Per-host inbound deliveries, (arrival_ps, packet) in arrival
        #: order (one egress serializer per port: arrivals only grow),
        #: and the (arrival_ps, host) heap that says who is due when.
        self._delivery: List[Deque[Tuple[int, FabricPacket]]] = [
            deque() for _ in range(num_hosts)
        ]
        self._arrivals: List[Tuple[int, int]] = []
        self.buffer_used = 0
        # Counters (all deterministic; surfaced into FabricResult).
        self.forwarded = 0
        self.dropped = 0
        self.drops_per_port = [0] * num_hosts
        self.ecn_marked = 0
        self.peak_buffer_bytes = 0
        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None

    # -------------------------------------------------------------- wiring
    def host_ip(self, index: int) -> int:
        return _BASE_IP + index

    def port(self, index: int) -> _FabricPort:
        return _FabricPort(self, index)

    def _host_of_ip(self, ip: int) -> Optional[int]:
        index = ip - _BASE_IP
        return index if 0 <= index < self.num_hosts else None

    # ------------------------------------------------------------ policies
    def _admit_limit(self, out_port: int) -> int:
        """Max queued bytes this output may hold right now."""
        config = self.config
        if config.partition == "shared":
            return config.buffer_bytes
        if config.partition == "static":
            return config.buffer_bytes // self.num_hosts
        # Dynamic threshold: alpha x free buffer, evaluated on arrival.
        free = config.buffer_bytes - self.buffer_used
        return config.dt_alpha_x8 * free // 8

    # ------------------------------------------------------ the event loop
    def next_event_ps(self) -> Optional[int]:
        """Earliest instant at which the fabric's state next changes."""
        events, arrivals = self._events, self._arrivals
        if events and (not arrivals or events[0][0] < arrivals[0][0]):
            return events[0][0]
        return arrivals[0][0] if arrivals else None

    def advance(self, now_ps: int) -> Set[int]:
        """Process every switch event due at or before ``now_ps``;
        returns the hosts with a delivery due.

        Events are handled in global time order with ingress admissions
        before egress starts at the same instant, ties across ports
        broken by host index — a fixed total order, hence determinism.
        """
        events = self._events
        while events and events[0][0] <= now_ps:
            t, kind, port = heapq.heappop(events)
            self.events_popped += 1
            if kind == _INGRESS:
                for packet in self._uplinks[port].deliver_due(t):
                    self._admit(packet, port, t)
            else:
                self._serve(port, t)
        return _pop_due_hosts(self._arrivals, now_ps)

    def _admit(self, packet: FabricPacket, src: int, now_ps: int) -> None:
        out_port = self._host_of_ip(packet.key.dst_ip)
        if out_port is None:
            self.dropped += 1  # no such host: blackholed
            return
        queue = self._queues[out_port]
        wire_bytes = packet.wire_bytes
        if queue.queued_bytes + wire_bytes > self._admit_limit(out_port):
            self.dropped += 1
            self.drops_per_port[out_port] += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "drop", -1,
                    f"port={out_port} src={src} {wire_bytes}B "
                    f"depth={queue.queued_bytes}",
                )
            return
        threshold = self.config.ecn_threshold_bytes
        if threshold > 0 and queue.queued_bytes + wire_bytes > threshold:
            packet.ce = True
            self.ecn_marked += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "ecn-mark", -1,
                    f"port={out_port} depth={queue.queued_bytes + wire_bytes}",
                )
        queue.push(packet, src)
        if queue.queued_packets == 1:
            # First in line: starts now, or when the serializer frees.
            start = max(now_ps, self._egress_free_ps[out_port])
            heapq.heappush(self._events, (start, _EGRESS, out_port))
        self.buffer_used += wire_bytes
        if self.buffer_used > self.peak_buffer_bytes:
            self.peak_buffer_bytes = self.buffer_used

    def _serve(self, out_port: int, start_ps: int) -> None:
        queue = self._queues[out_port]
        packet = queue.pop()
        self.buffer_used -= packet.wire_bytes
        ser_ps = packet.wire_bytes * 8 * 10**12 // self._bits_per_s
        self._egress_free_ps[out_port] = start_ps + ser_ps
        arrival = start_ps + ser_ps + self._egress_prop_ps
        self._delivery[out_port].append((arrival, packet))
        heapq.heappush(self._arrivals, (arrival, out_port))
        if queue.queued_packets:
            # Whatever is queued was admitted at or before start_ps, so
            # the next start is the instant the serializer frees.
            heapq.heappush(
                self._events, (start_ps + ser_ps, _EGRESS, out_port)
            )
        self.forwarded += 1


# ---------------------------------------------------------------- sharding
class CellSwitch:
    """The slice of the output-queued switch owned by one shard cell.

    ``repro.shard`` decomposes :class:`SwitchFabric` by ownership: a
    cell owns its hosts' *uplinks* (sender-side queueing + serialization
    are computed locally at send time, so the switch-arrival instant of
    every outbound packet is known before it crosses a cell boundary)
    and its hosts' *output queues + egress serializers* (receiver-side
    contention is resolved locally at admission time).  Nothing else of
    the switch exists, which is exactly why only ``static`` buffer
    partitioning (a hard per-port slice) and ``fifo`` queueing
    decompose: ``shared``/``dynamic`` couple every port through the
    global ``buffer_used``, and DRR's pop-time deficit rotation needs
    ingress state from all sources at once.

    Admissions MUST be fed in nondecreasing ``(arrival_ps, src, seq)``
    order — the shard worker's event loop guarantees that — so depth
    accounting can retire served packets lazily and stay exact.
    """

    def __init__(
        self,
        hosts: List[int],
        num_hosts: int,
        config: Optional[SwitchConfig] = None,
    ) -> None:
        config = config or SwitchConfig(partition="static")
        config.validate()
        if config.partition != "static":
            raise ValueError(
                f"cell switches require partition='static' (a per-port "
                f"buffer slice is the only locally decidable admission "
                f"policy), got {config.partition!r}"
            )
        if config.queueing != "fifo":
            raise ValueError(
                f"cell switches require queueing='fifo', got "
                f"{config.queueing!r}"
            )
        self.config = config
        self.hosts = list(hosts)
        self.num_hosts = num_hosts
        link = config.link
        self._bits_per_s = int(link.bandwidth_gbps * 1e9)
        self.prop_ps = int(link.propagation_delay_us * 10**6)
        self.port_limit = config.buffer_bytes // num_hosts
        #: Sender side, per owned host: uplink serializer free instant
        #: and the per-source sequence that makes exchange keys unique.
        self._uplink_free: Dict[int, int] = {h: 0 for h in hosts}
        self._uplink_seq: Dict[int, int] = {h: 0 for h in hosts}
        #: Receiver side, per owned host: egress free instant, queued
        #: depth, and the (serve_start_ps, wire_bytes) retirement queue.
        self._egress_free: Dict[int, int] = {h: 0 for h in hosts}
        self._depth: Dict[int, int] = {h: 0 for h in hosts}
        self._serving: Dict[int, Deque[Tuple[int, int]]] = {
            h: deque() for h in hosts
        }
        #: Per owned host: (delivery_ps, packet) in delivery order (one
        #: egress serializer per port), and the (delivery_ps, host) heap
        #: over all of them: who is due when.
        self._delivery: Dict[int, Deque[Tuple[int, FabricPacket]]] = {
            h: deque() for h in hosts
        }
        self._arrivals: List[Tuple[int, int]] = []
        #: Lockstep sanitizer view (set by CellSim when attached); the
        #: admit hook checks the nondecreasing-arrival feed contract.
        self.san: Optional["LockstepSanitizer"] = None
        # Counters (all deterministic; merged into the shard result).
        self.forwarded = 0
        self.dropped = 0
        self.ecn_marked = 0
        self.bytes_sent = 0

    def host_ip(self, index: int) -> int:
        return _BASE_IP + index

    def host_of_ip(self, ip: int) -> Optional[int]:
        index = ip - _BASE_IP
        return index if 0 <= index < self.num_hosts else None

    def serialization_ps(self, wire_bytes: int) -> int:
        return wire_bytes * 8 * 10**12 // self._bits_per_s

    # ---------------------------------------------------------- sender side
    def send_from(
        self, src: int, packet: FabricPacket, at_ps: int
    ) -> Tuple[int, int]:
        """Run one packet through ``src``'s uplink; returns its
        ``(switch_arrival_ps, seq)`` exchange key."""
        free = self._uplink_free[src]
        start = at_ps if at_ps > free else free
        done = start + self.serialization_ps(packet.wire_bytes)
        self._uplink_free[src] = done
        self._uplink_seq[src] += 1
        self.bytes_sent += packet.wire_bytes
        return done + self.prop_ps, self._uplink_seq[src]

    # -------------------------------------------------------- receiver side
    def admit(self, packet: FabricPacket, now_ps: int) -> None:
        """Admit one packet arriving at the switch at ``now_ps``."""
        if self.san is not None:
            self.san.on_switch_admit(now_ps)
        out_port = self.host_of_ip(packet.key.dst_ip)
        if out_port is None or out_port not in self._depth:
            self.dropped += 1  # not ours: blackholed (mis-routed)
            return
        serving = self._serving[out_port]
        while serving and serving[0][0] <= now_ps:
            self._depth[out_port] -= serving.popleft()[1]
        wire_bytes = packet.wire_bytes
        depth = self._depth[out_port]
        if depth + wire_bytes > self.port_limit:
            self.dropped += 1
            return
        threshold = self.config.ecn_threshold_bytes
        if threshold > 0 and depth + wire_bytes > threshold:
            packet.ce = True
            self.ecn_marked += 1
        free = self._egress_free[out_port]
        start = now_ps if now_ps > free else free
        done = start + self.serialization_ps(wire_bytes)
        self._egress_free[out_port] = done
        self._depth[out_port] = depth + wire_bytes
        serving.append((start, wire_bytes))
        self._delivery[out_port].append((done + self.prop_ps, packet))
        heapq.heappush(self._arrivals, (done + self.prop_ps, out_port))
        self.forwarded += 1

    # ------------------------------------------------------------ the ports
    def deliver_due(self, host: int, now_ps: int) -> List[FabricPacket]:
        return _take_due(self._delivery[host], now_ps)

    def next_delivery_ps(self, host: int) -> Optional[int]:
        queue = self._delivery[host]
        return queue[0][0] if queue else None

    def next_any_delivery_ps(self) -> Optional[int]:
        return self._arrivals[0][0] if self._arrivals else None

    def due_hosts(self, now_ps: int) -> Set[int]:
        """The hosts whose ``deliver_due(host, now_ps)`` has packets."""
        return _pop_due_hosts(self._arrivals, now_ps)

    def port(self, host: int, outbound) -> "ShardPort":
        return ShardPort(self, host, outbound)


class ShardPort:
    """One host's NIC-side handle inside a shard cell (SoftPort-shaped).

    Outbound packets run through the cell switch's sender-side timing
    and are handed to ``outbound(arrival_ps, src, seq, packet)`` — the
    shard worker's router, which either feeds a local admission or
    ships the packet to the destination cell at the next epoch barrier.
    Inbound packets come from the cell switch's delivery heaps exactly
    like :class:`_FabricPort` does it.
    """

    def __init__(self, switch: CellSwitch, host: int, outbound) -> None:
        self._switch = switch
        self._host = host
        self._outbound = outbound

    def send(self, packet: FabricPacket, now_ps: int) -> None:
        arrival, seq = self._switch.send_from(self._host, packet, now_ps)
        self._outbound(arrival, self._host, seq, packet)

    def poll(self, now_ps: int) -> List[FabricPacket]:
        return self._switch.deliver_due(self._host, now_ps)

    def next_arrival_ps(self) -> Optional[int]:
        return self._switch.next_delivery_ps(self._host)

    @property
    def pending(self) -> int:
        return len(self._switch._delivery[self._host])
