"""The scheduler: event routing, coalescing, and TCB migration (§4.3, §4.4).

The scheduler orchestrates all flows:

* it tracks every TCB's up-to-date location in the **location LUT**
  (implemented with partitioned logic LUTs so several events route per
  cycle, §4.4.2);
* it **coalesces** events of the same flow in four 16-entry FIFOs before
  routing, reducing the event count reaching FPCs (§4.4.1);
* it holds events whose TCB is migrating in the **pending queue** and
  retries after 12 cycles — by which time any migration has completed,
  so the queue can never grow without bound (§4.3.2);
* it **allocates** new flows to the FPC with the lowest flow count and
  **migrates** flows away from congested FPCs (§4.4.2);
* it drives the FPC↔DRAM **migration protocol**: evict request → evict
  flag → evict checker diverts the processed TCB → DRAM store →
  location-LUT update (Fig 6).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..mem.advisor import POLICY_PREDICTIVE, resolve_policy
from ..sim.component import NEVER, Component, OwnersCycle
from ..sim.fifo import Fifo
from ..sim.memory import PartitionedLUT
from ..tcp.tcb import Tcb
from .events import TcpEvent
from .fpc import FlowProcessingCore
from .memory_manager import CYCLE_PS, MemoryManager

#: Retry interval for events whose TCB is migrating (§4.3.2).
PENDING_RETRY_CYCLES = 12
COALESCE_FIFOS = 4
COALESCE_DEPTH = 16


class Location(enum.Enum):
    FPC = "fpc"
    DRAM = "dram"
    MOVING = "moving"


@dataclass
class _Migration:
    """An in-flight eviction out of an FPC."""

    flow_id: int
    source_fpc: int
    #: 'capacity': make room in SRAM (destination DRAM); 'congestion':
    #: rebalance to the idlest FPC (§4.4.2).
    kind: str = "capacity"
    #: When set, swap this DRAM flow into the freed slot afterwards.
    then_swap_in: Optional[int] = None


class Scheduler(Component):
    """Routes events and migrates TCBs among FPCs and DRAM."""

    cycle = OwnersCycle()

    def __init__(
        self,
        fpcs: List[FlowProcessingCore],
        memory_manager: MemoryManager,
        coalescing: bool = True,
        lut_groups: int = COALESCE_FIFOS,
        flow_heat=None,
        placement_policy: Optional[str] = None,
        clock=None,
    ) -> None:
        super().__init__("scheduler", clock)
        self.fpcs = fpcs
        self.memory_manager = memory_manager
        self.coalescing = coalescing
        #: repro.mem FlowHeat advisor, or None (the paper's reactive
        #: placement; the default keeps the hot path advisor-free).
        self.flow_heat = flow_heat
        self.placement_policy = resolve_policy(placement_policy)
        self.lut = PartitionedLUT(lut_groups)
        self.coalesce_fifos: List[Fifo[TcpEvent]] = [
            Fifo(COALESCE_DEPTH, f"coalesce{i}") for i in range(COALESCE_FIFOS)
        ]
        #: Events whose destination is migrating: (retry_cycle, event).
        self.pending: Deque[Tuple[int, TcpEvent]] = deque()
        self._migrations: Dict[int, _Migration] = {}
        #: Swap-ins waiting for room in their target FPC.
        self._deferred_swap_ins: Deque[int] = deque()
        #: The work horizon: the first cycle on which :meth:`tick` does
        #: anything (NEVER while there is nothing to do); a tick before
        #: it is a no-op.  At once while a coalesce FIFO, a swap-in
        #: request, a deferred swap-in or an evicted TCB waits; else the
        #: pending head's retry cycle.  A migration in flight is not on
        #: the list: its wait is the source FPC's, whose retire queues
        #: the evicted TCB and wakes us.
        self.next_action = NEVER
        # The blocks whose output queues tick() drains say when they
        # fill one.
        memory_manager.notify_scheduler = self._wake
        for fpc in fpcs:
            fpc.notify_scheduler = self._wake

        self.events_submitted = 0
        self.events_coalesced = 0
        self.events_routed = 0
        self.congestion_migrations = 0
        self.migrations_declined_hot = 0
        self.evictions = 0
        self.swap_ins = 0
        self.pending_retries = 0
        self.max_pending = 0

        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None
        self.trace_name = self.name
        #: Race sanitizer (repro.check): shadow-state checker, or None.
        self.san = None

    # ------------------------------------------------------- registration
    def register_new_flow(self, tcb: Tcb) -> Location:
        """Place a new flow: emptiest FPC first, DRAM as overflow (§4.4.2)."""
        target = self._fpc_with_lowest_count(require_room=True)
        if target is not None:
            target.accept_tcb(tcb)
            self.lut.set(tcb.flow_id, (Location.FPC, target.fpc_id))
            return Location.FPC
        self.memory_manager.store(tcb)
        self.lut.set(tcb.flow_id, (Location.DRAM, -1))
        return Location.DRAM

    def deregister_flow(self, flow_id: int) -> None:
        """Remove a closed flow wherever it lives."""
        where = self.lut.get(flow_id)
        if where is None:
            return
        location, fpc_id = where
        if location is Location.FPC:
            fpc = self.fpcs[fpc_id]
            slot = fpc.cam.try_lookup(flow_id)
            if slot is not None:
                fpc.cam.remove(flow_id)
                fpc.tcb_table.clear(slot)
                fpc.event_table.clear(slot)
                if self.san is not None:
                    self.san.on_slot_clear(fpc_id, slot)
        elif location is Location.DRAM and flow_id in self.memory_manager:
            self.memory_manager.take(flow_id)
        if self.san is not None:
            self.san.on_flow_closed(flow_id)
        self.lut.delete(flow_id)

    def location_of(self, flow_id: int) -> Optional[Location]:
        where = self.lut.get(flow_id)
        return None if where is None else where[0]

    def _fpc_with_lowest_count(
        self, require_room: bool = False
    ) -> Optional[FlowProcessingCore]:
        if self.placement_policy == POLICY_PREDICTIVE and self.flow_heat is not None:
            # Predictive placement ranks FPCs by predicted event mass,
            # not resident-flow count: an FPC hosting one heavy hitter
            # is *fuller* than one hosting three mice, so migrations
            # and swap-ins land on genuinely idle cores instead of
            # ping-ponging through the hot one.
            heat = self.flow_heat
            return min(
                (f for f in self.fpcs if not require_room or f.has_room),
                key=lambda f: (
                    sum(heat.estimate(fid) for fid in f.cam.keys()),
                    f.flow_count,
                ),
                default=None,
            )
        # One pass, first minimum wins (what ``min`` over the list did).
        best: Optional[FlowProcessingCore] = None
        lowest = 0
        for fpc in self.fpcs:
            if require_room and not fpc.has_room:
                continue
            count = fpc.flow_count
            if best is None or count < lowest:
                best, lowest = fpc, count
        return best

    # ------------------------------------------------------------- submit
    def submit(self, event: TcpEvent) -> bool:
        """Accept an event into the coalesce stage; False = backpressure."""
        fifo = self.coalesce_fifos[event.flow_id % COALESCE_FIFOS]
        coalesced = False
        if self.coalescing:
            # Coalesce with an event of the same flow already queued,
            # but only when no information would be lost (§4.4.1).
            for queued in fifo._items:
                if queued.flow_id == event.flow_id and queued.information_preserving_merge(event):
                    coalesced = True
                    break
        if not coalesced and not fifo.push(event):
            # Refused: the caller offers the same event again, so
            # nothing — the heat advisor least of all — may count it yet.
            return False
        self.events_submitted += 1
        if self.flow_heat is not None:
            self.flow_heat.record(event.flow_id)
        if coalesced:
            self.events_coalesced += 1
            if self.trace is not None:
                self.trace.emit(
                    self.cycle * CYCLE_PS, "engine.sched",
                    self.trace_name, "coalesce", event.flow_id,
                    event.kind.value,
                )
        else:
            self._wake()
        return True

    @property
    def input_backlog(self) -> int:
        return sum(len(f) for f in self.coalesce_fifos) + len(self.pending)

    # -------------------------------------------------------------- clock
    def _wake(self) -> None:
        """Something :meth:`tick` drains was queued: due on the first
        tick from now — this cycle's, when a wire arrival is submitted
        ahead of the scheduler's turn in it."""
        due = self.clock.cycle
        if due < self.next_action:
            self.next_action = due

    def _rearm(self) -> None:
        """Recompute :attr:`next_action` at the end of a tick, when the
        swap-in requests and the evicted TCBs have just been drained."""
        due = self.clock.cycle + 1
        if not self._deferred_swap_ins:
            for fifo in self.coalesce_fifos:
                if fifo._items:
                    break
            else:
                due = self.pending[0][0] if self.pending else NEVER
        self.next_action = due

    def tick(self) -> None:
        # A stage is entered only when it has something to do.
        if self.clock is self:
            self.cycle += 1
        if self.pending:
            self._retry_pending()
        # Route up to one event per LUT partition per cycle (§4.4.2).
        for fifo in self.coalesce_fifos:
            if fifo._items and self._route(fifo._items[0]):
                fifo.pop()
                self.events_routed += 1
        if self.memory_manager.swap_in_requests or self._deferred_swap_ins:
            self._handle_swap_in_requests()
        self._collect_evicted()
        self._rearm()

    # ------------------------------------------------------------- routing
    def _route(self, event: TcpEvent) -> bool:
        where = self.lut.get(event.flow_id)
        if where is None:
            return True  # flow closed while queued; drop
        location, fpc_id = where
        if location is Location.MOVING:
            self.pending.append((self.clock.cycle + PENDING_RETRY_CYCLES, event))
            self.max_pending = max(self.max_pending, len(self.pending))
            if self.trace is not None:
                self.trace.emit(
                    self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                    "pend", event.flow_id, event.kind.value,
                )
            return True
        if location is Location.FPC:
            fpc = self.fpcs[fpc_id]
            if fpc.backpressure and len(self.fpcs) > 1:
                # Event load imbalance: migrate this flow to the idlest
                # FPC (§4.4.2, Table 2) and hold the event meanwhile —
                # but only when some FPC actually has headroom.  When
                # every FPC is saturated, migrating just thrashes.
                if (
                    self.placement_policy == POLICY_PREDICTIVE
                    and self.flow_heat is not None
                    and self.flow_heat.is_hot(event.flow_id)
                ):
                    # Predicted heavy hitter: moving it thrashes its CAM
                    # state and usually re-congests the target — keep it
                    # where it is and let the backlog drain.
                    self.migrations_declined_hot += 1
                    return fpc.offer_event(event)
                target = self._fpc_with_lowest_count(require_room=True)
                if (
                    target is not None
                    and target is not fpc
                    and not target.backpressure
                ):
                    self._migrate_between_fpcs(event.flow_id, fpc_id)
                    self.pending.append((self.clock.cycle + PENDING_RETRY_CYCLES, event))
                    self.max_pending = max(self.max_pending, len(self.pending))
                    return True
            return fpc.offer_event(event)
        return self.memory_manager.offer_event(event)

    def _retry_pending(self) -> None:
        for _ in range(len(self.pending)):
            retry_cycle, event = self.pending[0]
            if retry_cycle > self.clock.cycle:
                break
            self.pending.popleft()
            self.pending_retries += 1
            if self.trace is not None:
                self.trace.emit(
                    self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                    "retry", event.flow_id, event.kind.value,
                )
            if not self._route(event):
                self.pending.append((self.clock.cycle + PENDING_RETRY_CYCLES, event))

    # ----------------------------------------------------------- migration
    def _migrate_between_fpcs(self, flow_id: int, source_fpc: int) -> None:
        if flow_id in self._migrations:
            return
        if not self.fpcs[source_fpc].request_evict(flow_id):
            return
        self.lut.set(flow_id, (Location.MOVING, source_fpc))
        self._migrations[flow_id] = _Migration(flow_id, source_fpc, kind="congestion")
        self.congestion_migrations += 1
        if self.san is not None:
            self.san.on_migration_start(self.cycle, flow_id, source_fpc)
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "migrate", flow_id, f"congestion from=fpc{source_fpc}",
            )

    def _start_eviction(
        self, fpc: FlowProcessingCore, then_swap_in: Optional[int] = None
    ) -> bool:
        """Fig 6 step ①–③: pick the coldest flow and flag it for evict."""
        if self.flow_heat is not None:
            heat = self.flow_heat
            victim = fpc.coldest_flow(
                key=lambda fid, tcb: heat.coldness_key(fid, tcb.last_active)
            )
        else:
            victim = fpc.coldest_flow()
        if victim is None or victim in self._migrations:
            return False
        if not fpc.request_evict(victim):
            return False
        self.lut.set(victim, (Location.MOVING, fpc.fpc_id))
        self._migrations[victim] = _Migration(
            victim, fpc.fpc_id, kind="capacity", then_swap_in=then_swap_in
        )
        if self.san is not None:
            self.san.on_migration_start(self.cycle, victim, fpc.fpc_id)
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "migrate", victim, f"capacity from=fpc{fpc.fpc_id}",
            )
        return True

    def _handle_swap_in_requests(self) -> None:
        for flow_id in self.memory_manager.drain_swap_in_requests():
            self._deferred_swap_ins.append(flow_id)
        for _ in range(len(self._deferred_swap_ins)):
            flow_id = self._deferred_swap_ins.popleft()
            if flow_id not in self.memory_manager:
                continue  # already migrated or closed
            target = self._fpc_with_lowest_count(require_room=True)
            if target is not None:
                self._complete_swap_in(flow_id, target)
                continue
            # No room anywhere: evict a cold flow first, then swap in.
            fullest = self._fpc_with_lowest_count(require_room=False)
            if fullest is not None and self._start_eviction(
                fullest, then_swap_in=flow_id
            ):
                continue
            # Eviction also in flight; retry next cycle.
            self._deferred_swap_ins.append(flow_id)
            break

    def _complete_swap_in(self, flow_id: int, target: FlowProcessingCore) -> None:
        self.lut.set(flow_id, (Location.MOVING, -1))
        tcb, entry = self.memory_manager.take(flow_id)
        target.accept_tcb(tcb, entry)
        self.lut.set(flow_id, (Location.FPC, target.fpc_id))
        self.swap_ins += 1
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "swapin", flow_id, f"to=fpc{target.fpc_id}",
            )

    def _collect_evicted(self) -> None:
        """Fig 6 steps ④–⑤: evicted TCBs arrive; update the location LUT."""
        for fpc in self.fpcs:
            if not fpc.out_evicted:
                continue
            for tcb in fpc.drain_evicted():
                migration = self._migrations.pop(tcb.flow_id, None)
                self.evictions += 1
                if migration is not None and migration.kind == "congestion":
                    # FPC-to-FPC rebalance: land on the idlest FPC.
                    target = self._fpc_with_lowest_count(require_room=True)
                    if target is not None and target is not fpc:
                        target.accept_tcb(tcb)
                        self.lut.set(tcb.flow_id, (Location.FPC, target.fpc_id))
                        if self.trace is not None:
                            self.trace.emit(
                                self.cycle * CYCLE_PS, "engine.sched",
                                self.trace_name, "evicted", tcb.flow_id,
                                f"to=fpc{target.fpc_id}",
                            )
                        continue
                self.memory_manager.store(tcb)
                self.lut.set(tcb.flow_id, (Location.DRAM, -1))
                if self.trace is not None:
                    self.trace.emit(
                        self.cycle * CYCLE_PS, "engine.sched",
                        self.trace_name, "evicted", tcb.flow_id, "to=dram",
                    )
                if migration is not None and migration.then_swap_in is not None:
                    self._deferred_swap_ins.appendleft(migration.then_swap_in)
