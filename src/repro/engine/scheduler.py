"""The scheduler: event routing, coalescing, and TCB migration (§4.3, §4.4).

The scheduler orchestrates all flows:

* it tracks every TCB's up-to-date location in the **location LUT**
  (§4.4.2).  In hardware it is built from logic LUTs partitioned into
  groups, each serving one access per cycle, so that several events
  route per cycle: eight FPCs each accepting an event every two cycles
  need four groups, one per coalesce FIFO.  Here it is one dict;
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
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..sim.component import NEVER, Component, OwnersCycle
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


#: The location-LUT values that name no FPC: one tuple each, shared by
#: every flow there (a flow's entry costs its dict slot, not a tuple).
_IN_DRAM = (Location.DRAM, -1)
_SWAPPING_IN = (Location.MOVING, -1)


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
        clock=None,
    ) -> None:
        super().__init__("scheduler", clock)
        self.fpcs = fpcs
        self.memory_manager = memory_manager
        self.coalescing = coalescing
        #: The location LUT: flow -> (Location, FPC id or -1).
        self.lut: Dict[int, Tuple[Location, int]] = {}
        #: Per FPC, its two location-LUT values (shared, like _IN_DRAM).
        self._in_fpc = [(Location.FPC, fpc.fpc_id) for fpc in fpcs]
        self._leaving_fpc = [(Location.MOVING, fpc.fpc_id) for fpc in fpcs]
        #: At most COALESCE_DEPTH events each; a flow's FIFO is its id
        #: modulo COALESCE_FIFOS.
        self.coalesce_fifos: List[Deque[TcpEvent]] = [
            deque() for _ in range(COALESCE_FIFOS)
        ]
        #: Events whose destination is migrating: (retry_cycle, event).
        self.pending: Deque[Tuple[int, TcpEvent]] = deque()
        self._migrations: Dict[int, _Migration] = {}
        #: Swap-ins waiting for room in their target FPC.
        self._deferred_swap_ins: Deque[int] = deque()
        #: The work horizon: the first cycle on which :meth:`tick` does
        #: anything (NEVER while there is nothing to do); a tick before
        #: it is a no-op.  At once while an untried coalesce FIFO head,
        #: a swap-in request, a deferred swap-in or an evicted TCB
        #: waits; else the pending head's retry cycle.  Two kinds of
        #: work wait on another block instead: a FIFO head the memory
        #: manager's full input refused is tried again the cycle after
        #: that input pops, and a swap-in that found neither room nor a
        #: victim when the FPC it would evict from publishes one (or a
        #: slot frees, or a flow opens or closes).  A migration in
        #: flight is not on the list: its wait is the source FPC's,
        #: whose retire queues the evicted TCB and wakes us.
        self.next_action = NEVER
        #: An FPC has queued an evicted TCB since the last collection.
        self._evicted = False
        #: Flows whose FIFO head a full input refused this tick.
        self._refused: Sequence[int] = ()
        #: (cycle, FPC) of a swap-in that found no victim, until the
        #: swap-ins are handled again; see _handle_swap_in_requests.
        self._victim_wait: Optional[Tuple[int, FlowProcessingCore]] = None
        # The blocks whose output queues tick() drains say when they
        # fill one.
        memory_manager.notify_scheduler = self._wake
        memory_manager.return_event = self._pend
        for fpc in fpcs:
            fpc.notify_scheduler = self._on_evicted

        self.events_submitted = 0
        self.events_coalesced = 0
        self.events_routed = 0
        self.congestion_migrations = 0
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
            self.lut[tcb.flow_id] = self._in_fpc[target.fpc_id]
            return Location.FPC
        self.memory_manager.store(tcb)
        self.lut[tcb.flow_id] = _IN_DRAM
        return Location.DRAM

    def deregister_flow(self, flow_id: int) -> None:
        """Remove a closed flow wherever it lives."""
        where = self.lut.get(flow_id)
        if where is None:
            return
        if self._refused or self._victim_wait is not None:
            self._wake()  # a slot may free, a held head may drop
        location, fpc_id = where
        if location is Location.FPC:
            slot = self.fpcs[fpc_id].release(flow_id)
            if slot is not None and self.san is not None:
                self.san.on_slot_clear(fpc_id, slot)
        elif location is Location.DRAM and flow_id in self.memory_manager:
            self.memory_manager.take(flow_id)
        if self.san is not None:
            self.san.on_flow_closed(flow_id)
        del self.lut[flow_id]

    def location_of(self, flow_id: int) -> Optional[Location]:
        where = self.lut.get(flow_id)
        return None if where is None else where[0]

    def _fpc_with_lowest_count(
        self, require_room: bool = False
    ) -> Optional[FlowProcessingCore]:
        # One pass, first minimum wins (what ``min`` over the list did).
        best: Optional[FlowProcessingCore] = None
        lowest = 0
        for fpc in self.fpcs:
            count = fpc.flow_count
            if require_room and count >= fpc.slots:
                continue  # full
            if best is None or count < lowest:
                best, lowest = fpc, count
        return best

    # ------------------------------------------------------------- submit
    def submit(self, event: TcpEvent) -> bool:
        """Accept an event into the coalesce stage; False = backpressure."""
        items = self.coalesce_fifos[event.flow_id % COALESCE_FIFOS]
        # Only a new head is routable: one queued behind another waits
        # for it (and a queued head has the scheduler due or held).
        new_head = not items
        coalesced = False
        if self.coalescing:
            # Coalesce with the flow's tail-most queued event, but only
            # when no information would be lost (§4.4.1) — order
            # included: merging past a later event of the flow (a
            # dup-ACK, say) would let the merged one overtake it.
            for queued in reversed(items):
                if queued.flow_id == event.flow_id:
                    coalesced = queued.information_preserving_merge(event)
                    break
        if not coalesced:
            if len(items) >= COALESCE_DEPTH:
                # Refused: the caller offers the same event again, so
                # nothing may count it yet.
                return False
            items.append(event)
        self.events_submitted += 1
        if coalesced:
            self.events_coalesced += 1
            if self.trace is not None:
                self.trace.emit(
                    self.cycle * CYCLE_PS, "engine.sched",
                    self.trace_name, "coalesce", event.flow_id,
                    event.kind.value,
                )
        elif new_head:
            due = self.clock.cycle  # _wake, inline
            if due < self.next_action:
                self.next_action = due
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

    def _on_evicted(self) -> None:
        """An FPC queued an evicted TCB: collect it on the next tick."""
        self._evicted = True
        self._wake()

    def _swap_in_due(self, due: int) -> int:
        """When the swap-ins deferred after this tick handled them —
        put there by :meth:`_collect_evicted` (or they would be waiting
        already) — are next worth trying, folded into ``due``."""
        cycle = self.clock.cycle
        fullest = None
        if self._fpc_with_lowest_count(require_room=True) is None:
            fullest = self._fpc_with_lowest_count(require_room=False)
        if fullest is None:
            return cycle + 1  # it takes a free slot
        self._wait_for_victim(fullest)
        if self._victim(fullest) is not None and fullest.next_action > cycle:
            # Its victim is there to stay: no tick of that FPC this
            # cycle can take it back into the pipe.
            return cycle + 1
        return due

    def tick(self) -> None:
        # A stage is entered only when it has something to do.
        if self.clock is self:
            self.cycle += 1
        cycle = self.clock.cycle
        self.next_action = NEVER
        if self.pending:
            self._retry_pending()
        # Route up to one event per coalesce FIFO per cycle, one LUT
        # partition each in hardware (§4.4.2).
        due = NEVER
        refused: Sequence[int] = ()
        for items in self.coalesce_fifos:
            if not items:
                continue
            refuser = self._route(items[0])
            if refuser is None:
                items.popleft()
                self.events_routed += 1
                if items:
                    due = cycle + 1  # the next head is untried
            else:
                refused = [*refused, items[0].flow_id]
                if refuser is not self.memory_manager:
                    # An FPC pops its input on its next even cycle, at
                    # most one tick from now: try again on the next.
                    due = cycle + 1
        self._refused = refused
        if self.memory_manager.swap_in_requests or self._deferred_swap_ins:
            self._handle_swap_in_requests()
        if self._evicted:
            self._collect_evicted()
        if refused:
            # The memory manager's next tick pops an event (read now: a
            # store or take above may have held its channel longer).
            popped = self.memory_manager.next_action + 1
            if popped < due:
                due = popped
        # Fold ``due`` — when the FIFO heads are next worth trying —
        # into the horizon, now that the swap-in requests and the
        # evicted TCBs are drained; wakes during the tick have already
        # pulled it in.
        if self._deferred_swap_ins and self._victim_wait is None:
            due = self._swap_in_due(due)
        pending = self.pending
        if pending and pending[0][0] < due:
            due = pending[0][0]
        if due < self.next_action:
            self.next_action = due

    # ------------------------------------------------------------- routing
    def _route(self, event: TcpEvent) -> Optional[object]:
        """Route ``event`` (or drop or pend it); returns the block whose
        full input refused it, None when it is off the FIFO."""
        where = self.lut.get(event.flow_id)
        if where is None:
            return None  # flow closed while queued; drop
        location, fpc_id = where
        if location is Location.MOVING:
            self._pend(event)
            if self.trace is not None:
                self.trace.emit(
                    self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                    "pend", event.flow_id, event.kind.value,
                )
            return None
        if location is Location.FPC:
            fpc = self.fpcs[fpc_id]
            # FlowProcessingCore.backpressure, inline.
            if len(fpc.input) > fpc.depth // 2 and len(self.fpcs) > 1:
                # Event load imbalance: migrate this flow to the idlest
                # FPC (§4.4.2, Table 2) and hold the event meanwhile —
                # but only when some FPC actually has headroom.  When
                # every FPC is saturated, migrating just thrashes.
                target = self._fpc_with_lowest_count(require_room=True)
                if (
                    target is not None
                    and target is not fpc
                    and not target.backpressure
                ):
                    self._migrate_between_fpcs(event.flow_id, fpc_id)
                    self._pend(event)
                    return None
            return None if fpc.offer_event(event) else fpc
        manager = self.memory_manager
        return None if manager.offer_event(event) else manager

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
            if self._route(event) is not None:
                self._pend(event)

    def _pend(self, event: TcpEvent) -> None:
        """Hold ``event`` in the pending queue and route it again
        PENDING_RETRY_CYCLES on (§4.3.2) — also called by the memory
        manager for an event whose flow left DRAM while it was queued."""
        retry = self.clock.cycle + PENDING_RETRY_CYCLES
        self.pending.append((retry, event))
        self.max_pending = max(self.max_pending, len(self.pending))
        if retry < self.next_action:
            self.next_action = retry

    # ----------------------------------------------------------- migration
    def _migrate_between_fpcs(self, flow_id: int, source_fpc: int) -> None:
        if flow_id in self._migrations:
            return
        if not self.fpcs[source_fpc].request_evict(flow_id):
            return
        self.lut[flow_id] = self._leaving_fpc[source_fpc]
        self._migrations[flow_id] = _Migration(flow_id, source_fpc, kind="congestion")
        self.congestion_migrations += 1
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "migrate", flow_id, f"congestion from=fpc{source_fpc}",
            )

    def _victim(self, fpc: FlowProcessingCore) -> Optional[int]:
        """The flow to evict from ``fpc``: its coldest, or None while
        every flow there is in flight or already leaving."""
        victim = fpc.coldest_flow()
        return None if victim in self._migrations else victim

    def _start_eviction(
        self, fpc: FlowProcessingCore, then_swap_in: Optional[int] = None
    ) -> bool:
        """Fig 6 step ①–③: pick the coldest flow and flag it for evict."""
        victim = self._victim(fpc)
        if victim is None or not fpc.request_evict(victim):
            return False
        self.lut[victim] = self._leaving_fpc[fpc.fpc_id]
        self._migrations[victim] = _Migration(
            victim, fpc.fpc_id, kind="capacity", then_swap_in=then_swap_in
        )
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "migrate", victim, f"capacity from=fpc{fpc.fpc_id}",
            )
        return True

    def _handle_swap_in_requests(self) -> None:
        deferred = self._deferred_swap_ins
        if self._victim_wait is not None:
            since, fpc = self._victim_wait
            self._victim_wait = None
            fpc.notify_victim = None
            # Every tick slept through would have found the same: no
            # room, no victim.  Each dropped the closed flows at the
            # front and moved the first open one to the back — rotate
            # the open ones as far.  (A closed flow is only ever
            # dropped, so when does not matter.)
            skipped = self.clock.cycle - since - 1
            if skipped > 0:
                waiting = [f for f in deferred if f in self.memory_manager]
                turn = skipped % len(waiting) if waiting else 0
                deferred.clear()
                deferred.extend(waiting[turn:] + waiting[:turn])
        for flow_id in self.memory_manager.drain_swap_in_requests():
            deferred.append(flow_id)
        for _ in range(len(deferred)):
            flow_id = deferred.popleft()
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
            # Every flow there is in flight or leaving: nothing after
            # this tick's turn can give it room or a victim but what
            # wakes us.
            deferred.append(flow_id)
            if fullest is not None:
                self._wait_for_victim(fullest)
            break

    def _wait_for_victim(self, fullest: FlowProcessingCore) -> None:
        """Sleep the deferred swap-ins until ``fullest`` ends a tick
        with a flow to evict (or another wake comes first)."""
        self._victim_wait = (self.clock.cycle, fullest)
        fullest.notify_victim = self._wake

    def _complete_swap_in(self, flow_id: int, target: FlowProcessingCore) -> None:
        if flow_id in self._refused:
            self._wake()  # its held FIFO head now routes to the FPC
        self.lut[flow_id] = _SWAPPING_IN
        tcb, entry = self.memory_manager.take(flow_id)
        target.accept_tcb(tcb, entry)
        self.lut[flow_id] = self._in_fpc[target.fpc_id]
        self.swap_ins += 1
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.sched", self.trace_name,
                "swapin", flow_id, f"to=fpc{target.fpc_id}",
            )

    def _collect_evicted(self) -> None:
        """Fig 6 steps ④–⑤: evicted TCBs arrive; update the location LUT."""
        self._evicted = False
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
                        self.lut[tcb.flow_id] = self._in_fpc[target.fpc_id]
                        if self.trace is not None:
                            self.trace.emit(
                                self.cycle * CYCLE_PS, "engine.sched",
                                self.trace_name, "evicted", tcb.flow_id,
                                f"to=fpc{target.fpc_id}",
                            )
                        continue
                self.memory_manager.store(tcb)
                self.lut[tcb.flow_id] = _IN_DRAM
                if self.trace is not None:
                    self.trace.emit(
                        self.cycle * CYCLE_PS, "engine.sched",
                        self.trace_name, "evicted", tcb.flow_id, "to=dram",
                    )
                if migration is not None and migration.then_swap_in is not None:
                    self._deferred_swap_ins.appendleft(migration.then_swap_in)
