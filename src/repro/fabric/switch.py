"""A deterministic output-queued switch with shared-buffer contention.

N hosts attach through full-duplex links; every packet crosses one
uplink (serialization + propagation), is admitted against a shared
packet buffer, queues FIFO at its destination's output port, and
leaves through the egress serializer (+ propagation).  The contended
resources that make fabric scenarios interesting — egress bandwidth,
the shared buffer and the policy arbitrating it — are all here:

* **Buffer admission**: the classic dynamic threshold — a port may
  hold at most the *remaining free* buffer (alpha = 1), so hot ports
  are throttled while idle ports' share stays reclaimable.
* **ECN hook** (``ecn_threshold_bytes``): packets enqueued above the
  threshold are CE-marked; the soft stacks echo the mark and halve
  their windows — DCTCP-flavored, deliberately minimal.

Everything is integer picoseconds and integer bytes; events sit on one
heap keyed ``(time_ps, ingress-before-egress, port)`` and are processed
in that total order, so one seed replays one run bit for bit (the switch
itself has *no* RNG at all).  No host sees an ingress or an egress
start, only a delivery, so the event loop lets the switch run its own
events ahead to the next instant a host can act at, in one call.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Set, Tuple

from ..net.link import LINK_100G
from ..tcp.segment import ip_from_string
from .softstack import FabricPacket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..check.lockstep import LockstepSanitizer

#: First host IP; host ``i`` is ``_BASE_IP + i`` (plain int arithmetic).
_BASE_IP = ip_from_string("10.0.0.1")

#: Total packet buffer of one switch (bytes).
BUFFER_BYTES = 1 << 21

#: Bit-picoseconds per second: ``wire_bytes * _PS_BITS // bits_per_s``
#: is a packet's serialization time in whole ps.
_PS_BITS = 8 * 10**12

#: Event kinds, the middle field of the heap key: at one instant every
#: ingress admission sorts before any egress start.
_INGRESS, _EGRESS = 0, 1


def egress_host(packet: FabricPacket, src: int, num_hosts: int) -> Optional[int]:
    """The host a packet from host ``src`` goes to: whichever end of its
    connection's key (src = opener, both ways) it did not come from;
    None if that is no host of the switch."""
    key = packet.key
    index = key.dst_ip - _BASE_IP
    if index == src:
        index = key.src_ip - _BASE_IP
    return index if 0 <= index < num_hosts else None


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


class _OutputQueue:
    """One egress port's FIFO and its depth."""

    def __init__(self) -> None:
        self._fifo: Deque[FabricPacket] = deque()
        self.queued_bytes = 0
        self.queued_packets = 0

    def push(self, packet: FabricPacket) -> None:
        self._fifo.append(packet)
        self.queued_bytes += packet.wire_bytes
        self.queued_packets += 1

    def pop(self) -> FabricPacket:
        packet = self._fifo.popleft()
        self.queued_bytes -= packet.wire_bytes
        self.queued_packets -= 1
        return packet


class _FabricPort:
    """One host's NIC-side handle on the fabric (WirePort-shaped)."""

    def __init__(self, fabric: "SwitchFabric", index: int) -> None:
        self._fabric = fabric
        self._index = index

    def send(self, packet: FabricPacket, now_ps: int) -> None:
        """Serialize ``packet`` on this host's uplink (FIFO, as
        :meth:`CellSwitch.send_from` does) and schedule its ingress."""
        fabric = self._fabric
        index = self._index
        free = fabric._uplink_free[index]
        start = now_ps if now_ps > free else free
        # Link.serialization_time_ps, inline: once per sent packet.
        done = start + packet.wire_bytes * _PS_BITS // fabric._bits_per_s
        fabric._uplink_free[index] = done
        # An uplink's arrivals strictly increase: no heap tie reaches
        # the packet.
        heapq.heappush(
            fabric._events, (done + fabric._prop_ps, _INGRESS, index, packet)
        )

    def poll(self, now_ps: int) -> List[FabricPacket]:
        """Packets the switch (advanced by the event loop) delivered."""
        return _take_due(self._fabric._delivery[self._index], now_ps)


class SwitchFabric:
    """N host ports around one output-queued shared-buffer switch."""

    #: Total packet buffer shared by all output queues.
    buffer_bytes = BUFFER_BYTES

    def __init__(self, num_hosts: int, ecn_threshold_bytes: int = 0) -> None:
        if num_hosts < 2:
            raise ValueError("a fabric needs at least 2 hosts")
        self.num_hosts = num_hosts
        #: CE-mark packets enqueued above this depth; 0 disables ECN.
        self.ecn_threshold_bytes = ecn_threshold_bytes
        #: Instant each host's uplink serializer frees (100 GbE, as the
        #: egress links).
        self._uplink_free = [0] * num_hosts
        self._queues = [_OutputQueue() for _ in range(num_hosts)]
        self._egress_free_ps = [0] * num_hosts
        self._prop_ps = LINK_100G.propagation_delay_ps
        self._bits_per_s = LINK_100G.bits_per_second
        #: The event heap: ``(time_ps, kind, port, packet)``.  An ingress
        #: entry (``port`` the sender) is pushed when a send fixes its
        #: arrival; a port with queued packets has exactly one scheduled
        #: egress start (``packet`` None).
        self._events: List[Tuple[int, int, int, Optional[FabricPacket]]] = []
        self.events_popped = 0
        #: The instant of the last event processed.
        self._ran_to_ps = 0
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

    # ------------------------------------------------------ the event loop
    def advance(self, limit_ps: int) -> Optional[int]:
        """Run the switch's own events ahead, up to the first delivery
        or ``limit_ps``, whichever comes first (an event at exactly that
        instant included); returns the next delivery instant.

        Events are handled in global time order with ingress admissions
        before egress starts at the same instant, ties across ports
        broken by host index — a fixed total order, hence determinism.
        An egress start may schedule a delivery ahead of the one the
        run was bounded by, which then bounds the rest of it.
        """
        events, arrivals = self._events, self._arrivals
        stop = limit_ps
        if arrivals and arrivals[0][0] < stop:
            stop = arrivals[0][0]
        while events and events[0][0] <= stop:
            t, kind, port, packet = heapq.heappop(events)
            self.events_popped += 1
            self._ran_to_ps = t
            if kind == _INGRESS:
                self._admit(packet, port, t)
            else:
                arrival = self._serve(port, t)
                if arrival < stop:
                    stop = arrival
        return arrivals[0][0] if arrivals else None

    def due_hosts(self, now_ps: int) -> Set[int]:
        """The hosts whose port has a delivery due by ``now_ps``."""
        return _pop_due_hosts(self._arrivals, now_ps)

    def stall_ps(self, now_ps: int, deadline_ps: int) -> int:
        """Where a stalled event loop at ``now_ps`` stops its clock: at
        the last event the switch ran, or at the deadline if one is
        still due past it."""
        if self._events:
            return deadline_ps
        return self._ran_to_ps if self._ran_to_ps > now_ps else now_ps

    def _admit(self, packet: FabricPacket, src: int, now_ps: int) -> None:
        out_port = egress_host(packet, src, self.num_hosts)
        if out_port is None:
            self.dropped += 1  # no such host: blackholed
            return
        queue = self._queues[out_port]
        wire_bytes = packet.wire_bytes
        # Dynamic threshold: at most the free buffer, evaluated on arrival.
        if queue.queued_bytes + wire_bytes > self.buffer_bytes - self.buffer_used:
            self.dropped += 1
            self.drops_per_port[out_port] += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "drop", -1,
                    f"port={out_port} src={src} {wire_bytes}B "
                    f"depth={queue.queued_bytes}",
                )
            return
        threshold = self.ecn_threshold_bytes
        if threshold > 0 and queue.queued_bytes + wire_bytes > threshold:
            packet.ce = True
            self.ecn_marked += 1
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "fabric", "switch", "ecn-mark", -1,
                    f"port={out_port} depth={queue.queued_bytes + wire_bytes}",
                )
        queue.push(packet)
        if queue.queued_packets == 1:
            # First in line: starts now, or when the serializer frees.
            start = max(now_ps, self._egress_free_ps[out_port])
            heapq.heappush(self._events, (start, _EGRESS, out_port, None))
        self.buffer_used += wire_bytes
        if self.buffer_used > self.peak_buffer_bytes:
            self.peak_buffer_bytes = self.buffer_used

    def _serve(self, out_port: int, start_ps: int) -> int:
        """Start serving ``out_port``'s oldest packet; returns its
        delivery instant."""
        queue = self._queues[out_port]
        packet = queue.pop()
        self.buffer_used -= packet.wire_bytes
        # Link.serialization_time_ps, inline: once per forwarded packet.
        ser_ps = packet.wire_bytes * _PS_BITS // self._bits_per_s
        self._egress_free_ps[out_port] = start_ps + ser_ps
        arrival = start_ps + ser_ps + self._prop_ps
        self._delivery[out_port].append((arrival, packet))
        heapq.heappush(self._arrivals, (arrival, out_port))
        if queue.queued_packets:
            # Whatever is queued was admitted at or before start_ps, so
            # the next start is the instant the serializer frees.
            heapq.heappush(
                self._events, (start_ps + ser_ps, _EGRESS, out_port, None)
            )
        self.forwarded += 1
        return arrival


# ---------------------------------------------------------------- sharding
class CellSwitch:
    """The slice of the output-queued switch owned by one shard cell.

    ``repro.shard`` decomposes :class:`SwitchFabric` by ownership: a
    cell owns its hosts' *uplinks* (sender-side queueing + serialization
    are computed locally at send time, so the switch-arrival instant of
    every outbound packet is known before it crosses a cell boundary)
    and its hosts' *output queues + egress serializers* (receiver-side
    contention is resolved locally at admission time).  Nothing else of
    the switch exists, which is why a cell admits against a static
    per-port slice of the buffer: the dynamic threshold couples every
    port through the global ``buffer_used``.  Cell switches do not
    mark ECN.

    Admissions MUST be fed in nondecreasing ``(arrival_ps, src, seq)``
    order — the shard worker's event loop guarantees that — so depth
    accounting can retire served packets lazily and stay exact.
    """

    #: Total packet buffer; each port owns a static 1/N slice of it.
    buffer_bytes = BUFFER_BYTES

    def __init__(self, hosts: List[int], num_hosts: int) -> None:
        self.hosts = list(hosts)
        self.num_hosts = num_hosts
        self._bits_per_s = LINK_100G.bits_per_second
        self.prop_ps = LINK_100G.propagation_delay_ps
        self.port_limit = self.buffer_bytes // num_hosts
        # Per-host state lives in lists indexed by host; only the owned
        # hosts' entries are ever touched (``_serving`` is None for the
        # others, which is how admission tells them apart).
        #: Sender side: uplink serializer free instant and the
        #: per-source sequence that makes exchange keys unique.
        self._uplink_free: List[int] = [0] * num_hosts
        self._uplink_seq: List[int] = [0] * num_hosts
        #: Receiver side: egress free instant, queued depth, and the
        #: (serve_start_ps, wire_bytes) retirement queue.
        self._egress_free: List[int] = [0] * num_hosts
        self._depth: List[int] = [0] * num_hosts
        self._serving: List[Optional[Deque[Tuple[int, int]]]] = [None] * num_hosts
        #: (delivery_ps, packet) in delivery order (one egress
        #: serializer per port).
        self._delivery: List[Optional[Deque[Tuple[int, FabricPacket]]]] = [
            None
        ] * num_hosts
        for host in self.hosts:
            self._serving[host] = deque()
            self._delivery[host] = deque()
        #: The (delivery_ps, host) heap over every owned host's
        #: deliveries: who is due when (the cell's loop reads its head).
        self.arrivals: List[Tuple[int, int]] = []
        #: Lockstep sanitizer view (set by CellSim when attached); the
        #: admit hook checks the nondecreasing-arrival feed contract.
        self.san: Optional["LockstepSanitizer"] = None
        # Counters (all deterministic; merged into the shard result).
        self.forwarded = 0
        self.dropped = 0
        self.bytes_sent = 0

    def host_ip(self, index: int) -> int:
        return _BASE_IP + index

    def host_of_ip(self, ip: int) -> Optional[int]:
        index = ip - _BASE_IP
        return index if 0 <= index < self.num_hosts else None

    # ---------------------------------------------------------- sender side
    def send_from(
        self, src: int, packet: FabricPacket, at_ps: int
    ) -> Tuple[int, int]:
        """Run one packet through ``src``'s uplink; returns its
        ``(switch_arrival_ps, seq)`` exchange key."""
        wire_bytes = packet.wire_bytes
        free = self._uplink_free[src]
        start = at_ps if at_ps > free else free
        # Link.serialization_time_ps, inline: once per sent packet.
        done = start + wire_bytes * _PS_BITS // self._bits_per_s
        self._uplink_free[src] = done
        seq = self._uplink_seq[src] + 1
        self._uplink_seq[src] = seq
        self.bytes_sent += wire_bytes
        return done + self.prop_ps, seq

    # -------------------------------------------------------- receiver side
    def admit(self, packet: FabricPacket, dst: int, now_ps: int) -> None:
        """Admit one packet for host ``dst`` (the end of its connection
        it did not come from: :func:`egress_host`, which the sender's
        cell worked out when it routed it) arriving at the switch at
        ``now_ps``."""
        if self.san is not None:
            self.san.on_switch_admit(now_ps)
        serving = self._serving[dst]
        if serving is None:
            self.dropped += 1  # not ours: blackholed (mis-routed)
            return
        depth = self._depth[dst]
        while serving and serving[0][0] <= now_ps:
            depth -= serving.popleft()[1]
        wire_bytes = packet.wire_bytes
        if depth + wire_bytes > self.port_limit:
            self._depth[dst] = depth
            self.dropped += 1
            return
        free = self._egress_free[dst]
        start = now_ps if now_ps > free else free
        done = start + wire_bytes * _PS_BITS // self._bits_per_s
        self._egress_free[dst] = done
        self._depth[dst] = depth + wire_bytes
        serving.append((start, wire_bytes))
        delivery = done + self.prop_ps
        self._delivery[dst].append((delivery, packet))
        heapq.heappush(self.arrivals, (delivery, dst))
        self.forwarded += 1

    # ------------------------------------------------------------ the ports
    def deliver_due(self, host: int, now_ps: int) -> List[FabricPacket]:
        return _take_due(self._delivery[host], now_ps)

    def next_any_delivery_ps(self) -> Optional[int]:
        return self.arrivals[0][0] if self.arrivals else None

    def due_hosts(self, now_ps: int) -> Set[int]:
        """The hosts whose ``deliver_due(host, now_ps)`` has packets."""
        return _pop_due_hosts(self.arrivals, now_ps)

    def port(self, host: int, outbound) -> "ShardPort":
        return ShardPort(self, host, outbound)


class ShardPort:
    """One host's NIC-side handle inside a shard cell (WirePort-shaped).

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

    @property
    def pending(self) -> int:
        return len(self._switch._delivery[self._host])
