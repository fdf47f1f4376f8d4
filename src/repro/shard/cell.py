"""One shard cell: its hosts, its switch slice, its epoch event loop.

A :class:`CellSim` owns a fixed group of hosts — each a
:class:`~repro.fabric.softstack.SoftStack` behind a
:class:`~repro.fabric.switch.ShardPort` — plus the
:class:`~repro.fabric.switch.CellSwitch` slice that resolves their
receive-side contention.  Between epoch barriers it runs an ordinary
discrete-event loop; packets leaving for another cell accumulate in
per-destination outboxes that the runner exchanges at the barrier.

The worker-count-invariance keystone lives here: **every** inter-host
packet — remote *and* local — takes the same path (sender-side uplink
timing at send instant, then a ``(arrival_ps, src, seq)``-ordered
pending inbox feeding switch admission).  Local packets are pushed into
the inbox directly, remote ones arrive at the barrier; since the heap
orders by key, not by push order, the admission sequence a cell
executes is identical however its inputs were batched.  That, plus
fixed host iteration order inside an instant, makes a cell's event
stream a pure function of (scenario, seed, cell index).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..obs.trace import StreamingFingerprint

from ..check.lockstep import LockstepSanitizer
from ..fabric.backend import get_backend
from ..fabric.softstack import FabricPacket, SoftStack, TimerWakeIndex
from ..fabric.switch import CellSwitch
from .host import ClientPairDriver, ServerHostDriver
from .scenarios import ShardScenario

#: One cross-switch wire segment: (switch_arrival_ps, src_host,
#: per-source sequence, packet).  The first three fields are a unique,
#: deterministic sort key — packets never need comparing.
Entry = Tuple[int, int, int, FabricPacket]


class CellSim:
    """The simulation of one cell between (and across) epoch barriers."""

    def __init__(
        self,
        scenario: ShardScenario,
        cell: int,
        trace: Optional[StreamingFingerprint] = None,
        san: Optional[LockstepSanitizer] = None,
    ) -> None:
        self.scenario = scenario
        self.cell = cell
        self.hosts = scenario.hosts_of_cell(cell)
        self.switch = CellSwitch(
            self.hosts, scenario.num_hosts, scenario.switch
        )
        self.trace = trace
        #: Lockstep sanitizer view; None on normal runs (the hooks below
        #: follow the trace bus's near-zero-cost guard contract).
        self.san = san.for_cell(cell) if san is not None else None
        if self.san is not None:
            self.san.on_configure(scenario.epoch_ps, self.switch.prop_ps)
            self.switch.san = self.san
        spec = get_backend(scenario.backend)
        self.stacks: Dict[int, SoftStack] = {}
        for host in self.hosts:
            stack = SoftStack(
                ip=self.switch.host_ip(host),
                port=self.switch.port(host, self._route),
                service=spec.service(),
                name=f"h{host}",
                seed=scenario.seed,
            )
            stack.trace = trace
            self.stacks[host] = stack
        self._wake = TimerWakeIndex(self.stacks.items())
        # Drivers: client pairs sorted by (client, server) and server
        # hosts grouped — construction order is part of determinism.
        self.clients: Dict[int, List[ClientPairDriver]] = {
            host: [] for host in self.hosts
        }
        self.servers: Dict[int, ServerHostDriver] = {}
        server_pairs: Dict[int, List] = {}
        for pair in scenario.pairs:
            if scenario.cell_of(pair.client) == cell:
                self.clients[pair.client].append(
                    ClientPairDriver(
                        scenario,
                        pair,
                        self.stacks[pair.client],
                        server_ip=self.switch.host_ip(pair.server),
                        trace=trace,
                    )
                )
            if scenario.cell_of(pair.server) == cell:
                server_pairs.setdefault(pair.server, []).append(pair)
        for host, pairs in server_pairs.items():
            self.servers[host] = ServerHostDriver(
                scenario,
                host,
                self.stacks[host],
                pairs,
                host_of_ip=self.switch.host_of_ip,
                trace=trace,
            )
        #: The pending inbox: every not-yet-admitted segment destined
        #: for this cell, local and remote alike, keyed for the heap.
        self.pending: List[Entry] = []
        self.outboxes: Dict[int, List[Entry]] = {
            c: [] for c in range(scenario.num_cells) if c != cell
        }
        #: One (next scheduled open, host) entry per host with any left.
        self._opens: List[Tuple[int, int]] = []
        for host in self.hosts:
            self._schedule_open(host)
        self.now_ps = 0
        self.events = 0
        self._admission_only = 0
        self._stack_ticks = 0

    @property
    def loop_stats(self) -> Dict[str, int]:
        """What the event loop itself did — not simulated behaviour, so
        not in :meth:`report`: instants visited, instants that only
        admitted packets, stack ticks, and the wake index's traffic."""
        wake = self._wake
        return {
            "instants": self.events,
            "admission_only": self._admission_only,
            "stack_ticks": self._stack_ticks,
            "index_pushes": wake.pushes,
            "live_pops": wake.live_pops,
            "stale_pops": wake.stale_pops,
        }

    def _schedule_open(self, host: int) -> None:
        opens = (d.next_action_ps() for d in self.clients[host])
        times = [at for at in opens if at is not None]
        if times:
            heapq.heappush(self._opens, (min(times), host))

    # ------------------------------------------------------------- routing
    def _route(
        self, arrival_ps: int, src: int, seq: int, packet: FabricPacket
    ) -> None:
        dst = self.switch.host_of_ip(packet.key.dst_ip)
        if dst is None:
            return  # mis-addressed: blackholed deterministically
        entry = (arrival_ps, src, seq, packet)
        dst_cell = self.scenario.cell_of(dst)
        if dst_cell == self.cell:
            if self.san is not None:
                self.san.on_route_local(entry, self.now_ps)
            heapq.heappush(self.pending, entry)
        else:
            self.outboxes[dst_cell].append(entry)

    def receive(self, entries: List[Entry]) -> None:
        """Merge a barrier exchange batch into the pending inbox."""
        if self.san is not None:
            self.san.on_exchange(entries, self.now_ps)
        for entry in entries:
            heapq.heappush(self.pending, entry)

    def take_outboxes(self) -> Dict[int, List[Entry]]:
        """Drain this epoch's cross-cell traffic, grouped by cell."""
        out = {
            cell: entries
            for cell, entries in self.outboxes.items()
            if entries
        }
        for cell in out:
            self.outboxes[cell] = []
        return out

    # ---------------------------------------------------------- event loop
    def _next_event_ps(self) -> Optional[int]:
        best = self.switch.next_any_delivery_ps()
        for heap in (self.pending, self._opens):
            if heap and (best is None or heap[0][0] < best):
                best = heap[0][0]
        return self._wake.next_wakeup_ps(best)

    def _settle(self, now: int) -> None:
        """Process everything due at one instant, in canonical order:
        admissions, stack ticks, driver ticks, message dispatch — on
        the hosts with a delivery, a scheduled open or a timer entry
        due (nothing can happen on the others), in ascending order."""
        pending = self.pending
        while pending and pending[0][0] <= now:
            entry = heapq.heappop(pending)
            if self.san is not None:
                self.san.on_admit(entry, now)
            arrival, _src, _seq, packet = entry
            self.switch.admit(packet, arrival)
        due = self.switch.due_hosts(now)
        opens = self._opens
        opening: List[int] = []
        while opens and opens[0][0] <= now:
            opening.append(heapq.heappop(opens)[1])
        due.update(opening)
        self._wake.pop_due(now, due)
        if not due:
            self._admission_only += 1
            return
        hosts = sorted(due)
        self._stack_ticks += len(hosts)
        for host in hosts:
            stack = self.stacks[host]
            stack.now_ps = now
            stack.tick()
        for host in hosts:
            server = self.servers.get(host)
            if server is not None:
                server.tick(now)
            for driver in self.clients[host]:
                driver.tick(now)
        for host in opening:
            self._schedule_open(host)
        for host in hosts:
            stack = self.stacks[host]
            messages = stack.drain_host_messages()
            if not messages:
                continue
            clients = self.clients[host]
            server = self.servers.get(host)
            for message in messages:
                owner = None
                for driver in clients:
                    if message.flow_id in driver.conns:
                        owner = driver
                        break
                if owner is not None:
                    owner.on_message(message, now)
                elif server is not None:
                    server.on_message(message, now)

    def run_epoch(self, end_ps: int) -> None:
        """Run every event strictly before ``end_ps``, then land on it."""
        if self.san is not None:
            self.san.on_epoch_open(self.pending, self.now_ps)
        while True:
            t = self._next_event_ps()
            if t is None or t >= end_ps:
                break
            if t < self.now_ps:
                t = self.now_ps  # stale-early timer entries re-index here
            self.now_ps = t
            self.events += 1
            self._settle(t)
        self.now_ps = end_ps

    # ----------------------------------------------------------- the gauges
    def idle(self) -> bool:
        """Nothing pending, in flight, armed or scheduled — this cell
        cannot act again without a barrier delivering it input."""
        if self.pending or self.switch.next_any_delivery_ps() is not None:
            return False
        if self._wake.next_wakeup_ps(None) is not None:
            return False
        return all(d.done for ds in self.clients.values() for d in ds)

    def open_conns(self) -> int:
        """Live client-side connections (the concurrency gauge; server
        endpoints are deliberately not double-counted)."""
        return sum(
            driver.open_conns
            for drivers in self.clients.values()
            for driver in drivers
        )

    def report(self) -> Dict[str, int]:
        """Deterministic per-cell counter totals (fingerprint excluded)."""
        totals = {
            "events": self.events,
            "packets_sent": 0,
            "packets_received": 0,
            "retransmits": 0,
            "timeouts": 0,
            "ecn_echoes": 0,
            "forwarded": self.switch.forwarded,
            "dropped": self.switch.dropped,
            "ecn_marked": self.switch.ecn_marked,
            "conns_opened": 0,
            "conns_established": 0,
            "txns_completed": 0,
            "conns_closed": 0,
            "accepted": 0,
            "responded": 0,
        }
        for host in self.hosts:
            stack = self.stacks[host]
            totals["packets_sent"] += stack.packets_sent
            totals["packets_received"] += stack.packets_received
            totals["retransmits"] += stack.retransmits
            totals["timeouts"] += stack.timeouts
            totals["ecn_echoes"] += stack.ecn_echoes
            for driver in self.clients[host]:
                totals["conns_opened"] += driver.opened
                totals["conns_established"] += driver.established
                totals["txns_completed"] += driver.completed
                totals["conns_closed"] += driver.closed
            server = self.servers.get(host)
            if server is not None:
                totals["accepted"] += server.accepted
                totals["responded"] += server.responded
        return totals
