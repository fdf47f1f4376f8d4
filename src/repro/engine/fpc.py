"""The Flow Processing Core: stall-free stateful TCP processing (§4.2).

An FPC bundles:

* the **event handler**, accumulating one input event every two cycles
  into the event table (§4.2.1);
* the **dual memory** — TCB table + event table, each written by exactly
  one writer, with per-field valid bits (§4.2.3).  They are BRAM, dual
  ported, so the two tables give four reads and four writes per two
  cycles; the FPC schedules its accesses statically, so that port
  discipline is a property of the schedule below, not something the
  model checks.  Here each table is a list indexed by slot;
* the **CAM** mapping a global flow id to its local slot (§4.4.2): a
  comparator array plus a binary log module in hardware, relying on the
  scheduler's routing guarantee that a lookup hits exactly one entry;
  here a dict, and a free-slot list handing out the lowest slot first
  and a freed slot first again;
* the **TCB manager**, constructing up-to-date TCBs and dispatching them
  round-robin so the FPU never sees the same flow twice within its
  pipeline depth (§4.2.2);
* the **FPU**, the stateless pipelined processor (II = 2, latency =
  algorithm-dependent), whose pipe is a deque of the TCBs in it;
* the **evict checker**, which intercepts processed TCBs whose evict flag
  is set and hands them to the scheduler instead of writing them back
  (§4.3.2) — guaranteeing a TCB is never evicted with unprocessed events;
* the **coldest-first order** of the flows the scheduler may evict, kept
  as flows are accepted, written back and released, so picking a victim
  costs the same at 16 flows as at 128 (a flow is ranked when a victim
  is next asked for, so a run that never evicts ranks nothing).

The port schedule follows the paper: in one cycle the event table stores
a handled event; in the other the TCB manager constructs and dispatches a
TCB (and the FPU writes back a processed one).  Hence one event handled
per two cycles — 125 M events/s at 250 MHz.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Callable, ClassVar, Deque, Dict, List, Optional, Set, Tuple

from ..sim.component import NEVER, Component, OwnersCycle
from ..tcp.tcb import Tcb
from .event_handler import EventEntry, accumulate_event, merge_into_tcb
from .events import TcpEvent
from .fpu import Fpu, ProcessResult
from .memory_manager import CYCLE_PS

#: Reference design: 8 FPCs x 128 flows (§4.4.2).
DEFAULT_SLOTS = 128


class FlowProcessingCore(Component):
    """One FPC; FtEngine instantiates several in parallel (§4.4.2)."""

    cycle = OwnersCycle()
    #: The FPU's initiation interval: a TCB may enter the pipe every
    #: this many cycles (§4.2.2).
    initiation_interval: ClassVar[int] = 2
    #: The input queue's depth, in events: :meth:`offer_event` refuses
    #: past it, and past half of it the FPC reports backpressure.
    depth: ClassVar[int] = 64

    def __init__(
        self,
        fpc_id: int,
        slots: int = DEFAULT_SLOTS,
        algorithm: str = "newreno",
        fpu: Optional[Fpu] = None,
        clock=None,
    ) -> None:
        super().__init__(f"fpc{fpc_id}", clock)
        self.fpc_id = fpc_id
        self.slots = slots

        #: The CAM: resident flow -> its slot in the two tables.
        self._slot_of: Dict[int, int] = {}
        #: The free slots: ``pop`` hands out the lowest first, and a
        #: freed slot, appended, is the next handed out.
        self._free: List[int] = list(range(slots - 1, -1, -1))
        #: The TCB table and the event table, by slot.
        self._tcbs: List[Optional[Tcb]] = [None] * slots
        self._entries: List[Optional[EventEntry]] = [None] * slots
        self.fpu = fpu if fpu is not None else Fpu(algorithm)
        self._latency = self.fpu.latency_cycles
        #: The FPU pipeline, oldest first: (retire_cycle, slot, TCB
        #: snapshot, dup_count).  Every pass takes the same latency, so
        #: the head retires first.
        self.pipe: Deque[Tuple[int, int, Tcb, int]] = deque()

        #: The input FIFO, at most :attr:`depth` events.
        self.input: Deque[TcpEvent] = deque()
        self._dispatch_queue: Deque[int] = deque()  # flow ids needing the FPU
        self._queued: Set[int] = set()
        self._in_flight: Set[int] = set()
        self._evict_requested: Set[int] = set()
        #: The flows the scheduler may evict — resident, not asked to
        #: leave; ``coldest_flow`` passes over the ones in flight —
        #: ranked (table copy's ``last_active``, CAM admission number):
        #: the order the CAM scan by ``last_active`` gave, first strict
        #: minimum in CAM order winning.  A write-back stamps the retire
        #: instant, which only grows, so a processed flow moves to the
        #: end of ``_lru``; one whose rank is not above that end (a
        #: swap-in's old ``last_active``) waits in the ``_cold`` heap of
        #: (last_active, admission, flow) until a pass moves it.  Heap
        #: entries whose rank is not the flow's current one are stale.
        self._rank: Dict[int, Tuple[int, int]] = {}
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._lru_end: Tuple[int, int] = (-1, -1)
        self._cold: List[Tuple[int, int, int]] = []
        #: Flows accepted or written back since the order was last read,
        #: with the ``last_active`` their table copy took.  They are
        #: ranked when :meth:`coldest_flow` next reads the order, so a
        #: run that never asks for a victim never ranks.
        self._unranked: Dict[int, int] = {}
        #: Resident flow -> the order it entered the CAM in.
        self._admitted: Dict[int, int] = {}
        self._admissions = 0
        #: Queued flows not in flight: what the TCB manager could issue.
        self._ready = 0
        #: When the pipe's head retires (NEVER while empty) and when the
        #: initiation interval next admits an issue: a tick with nothing
        #: to do is a few compares.
        self._retire_at = NEVER
        self._issue_at = 0
        #: The work horizon: the first cycle on which :meth:`tick`
        #: changes anything (NEVER while idle); a tick before it is a
        #: no-op.  Kept current wherever the state behind it changes
        #: (:meth:`_rearm`).
        self.next_action = NEVER
        #: Called with :attr:`fpc_id` when :attr:`next_action` leaves
        #: NEVER — the owning engine keeps the armed FPCs so that its
        #: tick visits only those — or None (a stand-alone FPC is its
        #: own clock and publishes nowhere).
        self.notify_armed: Optional[Callable[[int], None]] = None

        # Per-cycle outputs drained by FtEngine.
        self.out_results: List[ProcessResult] = []
        self.out_evicted: List[Tcb] = []
        #: Called when a TCB is queued on ``out_evicted`` (the scheduler,
        #: which collects them, hangs its wake here), or None.
        self.notify_scheduler: Optional[Callable[[], None]] = None
        #: One-shot: set by the scheduler while a swap-in waits for a
        #: victim here; called and cleared once a tick (or an accept)
        #: leaves a flow here to evict (:meth:`_announce_victim`).
        self.notify_victim: Optional[Callable[[], None]] = None

        self.events_accepted = 0
        self.tcbs_processed = 0

        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None
        self.trace_name = self.name
        #: Race sanitizer (repro.check): shadow-state checker, or None.
        self.san = None

    # -------------------------------------------------------------- flows
    @property
    def flow_count(self) -> int:
        return len(self._slot_of)

    def resident_flows(self) -> List[int]:
        return list(self._slot_of)

    def accept_tcb(self, tcb: Tcb, entry: Optional[EventEntry] = None) -> None:
        """Install a TCB (new flow or swap-in from DRAM, §4.3.2).

        Uses the dedicated write port, so it never contends with the
        FPU's writeback (§4.3.2).  ``entry`` carries any events that were
        handled in the memory manager while the flow lived in DRAM.
        """
        flow_id = tcb.flow_id
        if flow_id in self._slot_of:
            raise KeyError(f"{self.name}: flow {flow_id} is already resident")
        if not self._free:
            raise OverflowError(f"{self.name}: all {self.slots} TCB slots in use")
        slot = self._slot_of[flow_id] = self._free.pop()
        tcb.evict_flag = False
        written = entry if entry is not None else EventEntry()
        self._tcbs[slot] = tcb
        self._entries[slot] = written
        self._admissions += 1
        self._admitted[flow_id] = self._admissions
        self._unranked[flow_id] = tcb.last_active
        self._announce_victim()
        if self.san is not None:
            self.san.on_accept(
                self.fpc_id, self.cycle, slot, tcb.flow_id, written.valid
            )
        pending = (
            (entry is not None and entry.valid)
            or tcb.can_send_now()
            or tcb.cc.get("_connect_req")
            or tcb.cc.get("_latest_ack") is not None
            or tcb.syn_received
            or tcb.fin_received
            or tcb.rst_received
        )
        if pending:
            # The check logic swaps a flow in because it can send
            # (§4.3.1): the TCB manager starts on it at once.
            self._mark_pending(tcb.flow_id)
            self._wake()

    def request_evict(self, flow_id: int) -> bool:
        """Scheduler asks to evict ``flow_id``; sets the TCB's evict flag."""
        slot = self._slot_of.get(flow_id)
        if slot is None:
            return False
        self._tcbs[slot].evict_flag = True
        if self.san is not None:
            self.san.on_evict_request(self.fpc_id, self.cycle, flow_id)
        self._evict_requested.add(flow_id)
        self._withdraw(flow_id)
        # Route the flow to the FPU so the evict checker sees it soon.
        self._mark_pending(flow_id, priority=True)
        self._wake()
        return True

    def release(self, flow_id: int) -> Optional[int]:
        """Free a closed flow's slot; returns it, or None when the flow
        is not resident here."""
        slot = self._slot_of.pop(flow_id, None)
        if slot is None:
            return None
        self._free.append(slot)
        self._tcbs[slot] = None
        self._entries[slot] = None
        self._withdraw(flow_id)
        del self._admitted[flow_id]
        # A pass still in the pipe retires to no slot, never to eviction.
        self._evict_requested.discard(flow_id)
        return slot

    def coldest_flow(self) -> Optional[int]:
        """Least-recently-active resident flow eligible for eviction.

        The head of the coldest-first order, once the flows written
        back since the last call are ranked, passing over flows in the
        FPU pipe (at most its depth): the first such ``_lru`` member or
        the ``_cold`` heap's top, whichever ranks first.
        """
        unranked = self._unranked
        if unranked:
            for flow_id, last_active in unranked.items():
                self._rerank(flow_id, last_active)
            unranked.clear()
        rank, in_flight = self._rank, self._in_flight
        best = None
        for flow_id in self._lru:
            if flow_id not in in_flight:
                best = flow_id
                break
        cold = self._cold
        passing = []
        while cold:
            top = cold[0]
            flow_id = top[2]
            if rank.get(flow_id) != top[:2]:
                heapq.heappop(cold)  # stale
            elif flow_id in in_flight:
                passing.append(heapq.heappop(cold))
            else:
                if best is None or top[:2] < rank[best]:
                    best = flow_id
                break
        for top in passing:
            heapq.heappush(cold, top)
        return best

    def _rerank(self, flow_id: int, last_active: int) -> None:
        """Rank ``flow_id`` by the ``last_active`` its table copy now
        has: unchanged, it keeps its place; else at the end of ``_lru``
        when that keeps it in order, or on the heap."""
        ranked = (last_active, self._admitted[flow_id])
        rank = self._rank
        if rank.get(flow_id) == ranked:
            return
        rank[flow_id] = ranked
        lru = self._lru
        if flow_id in lru:
            del lru[flow_id]
        if ranked > self._lru_end or not lru:
            lru[flow_id] = None
            self._lru_end = ranked
        else:
            cold = self._cold
            if len(cold) >= 2 * self.slots:
                # Sweep the stale entries before the heap outgrows the
                # flows it can rank.
                cold[:] = {e[2]: e for e in cold if rank.get(e[2]) == e[:2]}.values()
                heapq.heapify(cold)
            heapq.heappush(cold, (last_active, ranked[1], flow_id))

    def _announce_victim(self) -> None:
        """Tell a scheduler waiting for a victim here that there is one
        (at the end of a tick, so not one its own dispatch took back)."""
        if self.notify_victim is not None and self.coldest_flow() is not None:
            notify, self.notify_victim = self.notify_victim, None
            notify()

    def _withdraw(self, flow_id: int) -> None:
        """Take ``flow_id`` out of the coldest-first order (its heap
        entry, if any, goes stale)."""
        self._unranked.pop(flow_id, None)
        rank = self._rank
        if flow_id in rank:
            del rank[flow_id]
            if flow_id in self._lru:
                del self._lru[flow_id]

    def peek_tcb(self, flow_id: int) -> Optional[Tcb]:
        slot = self._slot_of.get(flow_id)
        return None if slot is None else self._tcbs[slot]

    # -------------------------------------------------------------- queue
    def _mark_pending(self, flow_id: int, priority: bool = False) -> None:
        if flow_id in self._queued:
            return
        self._queued.add(flow_id)
        if priority:
            self._dispatch_queue.appendleft(flow_id)
        else:
            self._dispatch_queue.append(flow_id)
        if flow_id not in self._in_flight:
            self._ready += 1

    def offer_event(self, event: TcpEvent) -> bool:
        """Scheduler pushes an event; False signals backpressure (§4.4.2)."""
        items = self.input
        if len(items) >= self.depth:
            return False
        items.append(event)
        handled = (self.clock.cycle + 1) & ~1  # the event table's even phase
        due = self.next_action
        if handled < due:
            if due == NEVER and self.notify_armed is not None:
                self.notify_armed(self.fpc_id)
            self.next_action = handled
        return True

    @property
    def backpressure(self) -> bool:
        return len(self.input) > self.depth // 2

    # -------------------------------------------------------------- clock
    def _rearm(self, earliest: int) -> None:
        """Publish :attr:`next_action`: the first cycle from
        ``earliest`` on which a tick acts.

        The entry points (through :meth:`_wake`) pass the clock's cycle
        — the scheduler, which calls them, has its turn in a cycle
        before the FPCs have theirs — and :meth:`tick` the one after.
        Three things make a tick act: the pipe head retiring; an input
        event, on an *even* cycle (the event table's port phase); a
        queued flow not in flight, on an *odd* cycle the FPU's
        initiation interval admits.  A queue of in-flight flows only
        waits on their retire, which the first term covers.
        """
        due = self._retire_at
        if self.input:
            handled = (earliest + 1) & ~1
            if handled < due:
                due = handled
        if self._ready:
            issue = max(earliest, self._issue_at) | 1
            if issue < due:
                due = issue
        self.next_action = due

    def _wake(self) -> None:
        """An entry point queued a flow for the FPU: publish the horizon
        from the clock's cycle — never NEVER with a flow queued — and
        announce the arm if this FPC was idle."""
        if self.next_action == NEVER and self.notify_armed is not None:
            self.notify_armed(self.fpc_id)
        self._rearm(self.clock.cycle)

    def tick(self) -> None:
        clock = self.clock
        if clock is self:
            self.cycle += 1
        cycle = clock.cycle
        # A stage is entered only when it has something to do.  Retire
        # first so a writeback and a dispatch can share a cycle on the
        # two BRAM ports (§4.2.3's two-cycle schedule).
        acted = False
        if self._retire_at <= cycle:
            self._retire()
            acted = True
        if cycle % 2 == 0:
            if self.input:
                self._handle_one_event()
                acted = True
        elif self._ready and self._issue_at <= cycle:
            self._dispatch_one()
            acted = True
        if acted:
            # _rearm(cycle + 1), inline: this runs on every tick that acts.
            due = self._retire_at
            if self.input:
                handled = (cycle + 2) & ~1
                if handled < due:
                    due = handled
            if self._ready:
                issue = self._issue_at
                if issue <= cycle:
                    issue = cycle + 1
                issue |= 1
                if issue < due:
                    due = issue
            self.next_action = due
            if self.notify_victim is not None:
                self._announce_victim()

    def _handle_one_event(self) -> None:
        """The event handler (§4.2.1): fold the input head into its
        flow's event-table entry."""
        items = self.input
        if not items:
            return
        event = items.popleft()
        flow_id = event.flow_id
        slot = self._slot_of.get(flow_id)
        if slot is None:
            # The scheduler guarantees routing correctness (§4.3.2); a
            # miss here means the flow was evicted after routing, which
            # the moving-state protocol prevents.  Drop defensively.
            return
        entries = self._entries
        entry = entries[slot]
        if entry is None:
            entry = entries[slot] = EventEntry()
        accumulate_event(entry, event)
        self.events_accepted += 1
        if self.san is not None:
            self.san.on_event_write(
                self.fpc_id, self.cycle, slot, flow_id, entry.valid
            )
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,
                "handle", flow_id, event.kind.value,
            )
        if flow_id not in self._queued:  # _mark_pending, inline
            self._queued.add(flow_id)
            self._dispatch_queue.append(flow_id)
            if flow_id not in self._in_flight:
                self._ready += 1

    def _dispatch_one(self) -> None:
        cycle = self.clock.cycle
        if not self._dispatch_queue or self._issue_at > cycle:
            return  # nothing queued, or inside the FPU's initiation interval
        # Round-robin over pending flows, skipping in-flight ones (the
        # "distance" that prevents RMW hazards, §4.2.2).
        for _ in range(len(self._dispatch_queue)):
            flow_id = self._dispatch_queue.popleft()
            if flow_id in self._in_flight:
                self._dispatch_queue.append(flow_id)
                continue
            self._ready -= 1
            self._queued.discard(flow_id)
            slot = self._slot_of.get(flow_id)
            if slot is None:
                continue
            snapshot = self._tcbs[slot].clone()
            entry = self._entries[slot]
            if self.san is not None:
                self.san.on_construct(
                    self.fpc_id, self.cycle, slot, flow_id,
                    entry.valid if entry is not None else 0,
                )
            dup = merge_into_tcb(snapshot, entry) if entry is not None else 0
            self._in_flight.add(flow_id)
            retire = cycle + self._latency
            self.pipe.append((retire, slot, snapshot, dup))
            self._issue_at = cycle + self.initiation_interval
            if retire < self._retire_at:
                self._retire_at = retire  # the pipe was empty
            return

    def _retire(self) -> None:
        cycle = self.clock.cycle
        pipe = self.pipe
        slot_of, tcbs, entries = self._slot_of, self._tcbs, self._entries
        while pipe and pipe[0][0] <= cycle:
            _, slot, tcb, dup = pipe.popleft()
            result = self.fpu.process(tcb, dup, cycle * CYCLE_PS)
            self.tcbs_processed += 1
            flow_id = tcb.flow_id
            self._in_flight.discard(flow_id)
            if flow_id in self._queued:
                self._ready += 1  # re-queued while in the pipeline
            self.out_results.append(result)
            if flow_id in self._evict_requested:
                # The evict checker consults the request register, not
                # the TCB image: a request that arrived while this TCB
                # was in the pipeline set the flag on the table copy
                # only, and the write-back below would silently drop it
                # — leaving the flow MOVING forever.
                tcb.evict_flag = True
                # Divert the *processed* TCB (§4.3.2) — but only once
                # every already-routed event has been handled and
                # processed (the scheduler's moving state blocks new
                # routing, so the backlog is bounded).
                entry = entries[slot]
                backlog = (entry is not None and entry.valid) or any(
                    ev.flow_id == flow_id for ev in self.input
                )
                if backlog:
                    tcbs[slot] = tcb
                    if self.san is not None:
                        self.san.on_tcb_write(
                            self.fpc_id, self.cycle, slot, flow_id,
                            self.fpu.writer_id,
                        )
                    self._mark_pending(flow_id, priority=True)
                    continue
                self._evict_requested.discard(flow_id)
                del self._admitted[flow_id]
                self._free.append(slot_of.pop(flow_id))
                tcbs[slot] = None
                entries[slot] = None
                tcb.evict_flag = False
                if self.san is not None:
                    self.san.on_evicted(self.fpc_id, self.cycle, slot, flow_id)
                self.out_evicted.append(tcb)
                if self.notify_scheduler is not None:
                    self.notify_scheduler()
                if self.trace is not None:
                    self.trace.emit(
                        self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,
                        "evict", flow_id, tcb.state.value,
                    )
                continue
            current_slot = slot_of.get(flow_id)
            if current_slot is not None:
                tcbs[current_slot] = tcb
                self._unranked[flow_id] = tcb.last_active
                if self.san is not None:
                    self.san.on_tcb_write(
                        self.fpc_id, self.cycle, current_slot, flow_id,
                        self.fpu.writer_id,
                    )
                entry = entries[current_slot]
                if entry is not None and entry.valid:
                    # Events accumulated while we were in the pipeline.
                    self._mark_pending(flow_id)
        self._retire_at = pipe[0][0] if pipe else NEVER

    def drain_results(self) -> List[ProcessResult]:
        results, self.out_results = self.out_results, []
        return results

    def drain_evicted(self) -> List[Tcb]:
        evicted, self.out_evicted = self.out_evicted, []
        return evicted

