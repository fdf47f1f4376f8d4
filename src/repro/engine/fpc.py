"""The Flow Processing Core: stall-free stateful TCP processing (§4.2).

An FPC bundles:

* the **event handler**, accumulating one input event every two cycles
  into the event table (§4.2.1);
* the **dual memory** — TCB table + event table, each written by exactly
  one writer, with per-field valid bits (§4.2.3);
* the **TCB manager**, constructing up-to-date TCBs and dispatching them
  round-robin so the FPU never sees the same flow twice within its
  pipeline depth (§4.2.2);
* the **FPU**, the stateless pipelined processor (II = 2, latency =
  algorithm-dependent);
* the **evict checker**, which intercepts processed TCBs whose evict flag
  is set and hands them to the scheduler instead of writing them back
  (§4.3.2) — guaranteeing a TCB is never evicted with unprocessed events.

The port schedule follows the paper: in one cycle the event table stores
a handled event; in the other the TCB manager constructs and dispatches a
TCB (and the FPU writes back a processed one).  Hence one event handled
per two cycles — 125 M events/s at 250 MHz.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..sim.component import NEVER, Component, OwnersCycle
from ..sim.fifo import Fifo
from ..sim.memory import CAM, DualPortSRAM
from ..sim.pipeline import Pipeline
from ..tcp.tcb import Tcb
from .event_handler import EventEntry, EventHandler, merge_into_tcb
from .events import TcpEvent
from .fpu import Fpu, ProcessResult
from .memory_manager import CYCLE_PS

#: Reference design: 8 FPCs x 128 flows (§4.4.2).
DEFAULT_SLOTS = 128
DEFAULT_INPUT_DEPTH = 64


class FlowProcessingCore(Component):
    """One FPC; FtEngine instantiates several in parallel (§4.4.2)."""

    cycle = OwnersCycle()

    def __init__(
        self,
        fpc_id: int,
        slots: int = DEFAULT_SLOTS,
        algorithm: str = "newreno",
        now_fn: Optional[Callable[[], float]] = None,
        fpu: Optional[Fpu] = None,
        clock=None,
    ) -> None:
        super().__init__(f"fpc{fpc_id}", clock)
        self.fpc_id = fpc_id
        self.slots = slots
        self.now_fn = now_fn or (lambda: 0.0)

        self.tcb_table: DualPortSRAM[Tcb] = DualPortSRAM(slots, f"fpc{fpc_id}.tcb")
        self.event_table: DualPortSRAM[EventEntry] = DualPortSRAM(
            slots, f"fpc{fpc_id}.events"
        )
        self.cam: CAM[int] = CAM(slots, f"fpc{fpc_id}.cam")
        self.event_handler = EventHandler(self.event_table)
        self.fpu = fpu if fpu is not None else Fpu(algorithm)
        #: (slot, dup_count) travels the pipeline with the TCB snapshot.
        self.pipe: Pipeline[Tuple[int, Tcb, int], Tuple[int, Tcb, int]] = Pipeline(
            latency=self.fpu.latency_cycles,
            initiation_interval=2,
            name=f"fpc{fpc_id}.fpu-pipe",
        )

        self.input: Fifo[TcpEvent] = Fifo(DEFAULT_INPUT_DEPTH, f"fpc{fpc_id}.in")
        self._dispatch_queue: Deque[int] = deque()  # flow ids needing the FPU
        self._queued: Set[int] = set()
        self._in_flight: Set[int] = set()
        self._evict_requested: Set[int] = set()
        #: Queued flows not in flight: what the TCB manager could issue.
        self._ready = 0
        #: When the pipe's head retires (NEVER while empty) and when it
        #: next admits an issue, as plain integers: a tick with nothing
        #: to do is a few compares.
        self._retire_at = NEVER
        self._issue_at = 0
        #: The work horizon: the first cycle on which :meth:`tick`
        #: changes anything (NEVER while idle); a tick before it is a
        #: no-op.  Kept current wherever the state behind it changes
        #: (:meth:`_rearm`).
        self.next_action = NEVER

        # Per-cycle outputs drained by FtEngine.
        self.out_results: List[ProcessResult] = []
        self.out_evicted: List[Tcb] = []
        #: Called when a TCB is queued on ``out_evicted`` (the scheduler,
        #: which collects them, hangs its wake here), or None.
        self.notify_scheduler: Optional[Callable[[], None]] = None

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
        return len(self.cam)

    @property
    def has_room(self) -> bool:
        return not self.cam.full

    def resident_flows(self) -> List[int]:
        return self.cam.keys()

    def accept_tcb(self, tcb: Tcb, entry: Optional[EventEntry] = None) -> None:
        """Install a TCB (new flow or swap-in from DRAM, §4.3.2).

        Uses the dedicated write port, so it never contends with the
        FPU's writeback (§4.3.2).  ``entry`` carries any events that were
        handled in the memory manager while the flow lived in DRAM.
        """
        slot = self.cam.insert(tcb.flow_id)
        tcb.evict_flag = False
        written = entry if entry is not None else EventEntry()
        self.tcb_table.write(slot, tcb)
        self.event_table.write(slot, written)
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
            self._rearm(self.clock.cycle)

    def request_evict(self, flow_id: int) -> bool:
        """Scheduler asks to evict ``flow_id``; sets the TCB's evict flag."""
        slot = self.cam.try_lookup(flow_id)
        if slot is None:
            return False
        tcb = self.tcb_table.read(slot)
        tcb.evict_flag = True
        if self.san is not None:
            self.san.on_evict_request(self.fpc_id, self.cycle, flow_id)
        self._evict_requested.add(flow_id)
        # Route the flow to the FPU so the evict checker sees it soon.
        self._mark_pending(flow_id, priority=True)
        self._rearm(self.clock.cycle)
        return True

    def coldest_flow(self, key=None) -> Optional[int]:
        """Least-recently-active resident flow eligible for eviction.

        ``key(flow_id, tcb) -> sortable`` overrides the ``last_active``
        recency ranking — the predictive placement policy passes a
        sketch-coldness key so heavy hitters are evicted last.
        """
        best_id: Optional[int] = None
        best_rank = None
        for flow_id in self.cam.keys():
            if flow_id in self._in_flight or flow_id in self._evict_requested:
                continue
            tcb = self.tcb_table.read(self.cam.lookup(flow_id))
            rank = tcb.last_active if key is None else key(flow_id, tcb)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_id = flow_id
        return best_id

    def peek_tcb(self, flow_id: int) -> Optional[Tcb]:
        slot = self.cam.try_lookup(flow_id)
        return None if slot is None else self.tcb_table.read(slot)

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
        if not self.input.push(event):
            return False
        handled = (self.clock.cycle + 1) & ~1  # the event table's even phase
        if handled < self.next_action:
            self.next_action = handled
        return True

    @property
    def backpressure(self) -> bool:
        return len(self.input._items) > self.input.capacity // 2

    # -------------------------------------------------------------- clock
    def _rearm(self, earliest: int) -> None:
        """Publish :attr:`next_action`: the first cycle from
        ``earliest`` on which a tick acts.

        The entry points pass the clock's cycle — the scheduler, which
        calls them, has its turn in a cycle before the FPCs have theirs
        — and :meth:`tick` the one after.  Three things make a tick
        act: the pipe head retiring; an input event, on an *even* cycle
        (the event table's port phase); a queued flow not in flight, on
        an *odd* cycle the FPU's initiation interval admits.  A queue of
        in-flight flows only waits on their retire, which the first
        term covers.
        """
        due = self._retire_at
        if self.input._items:
            handled = (earliest + 1) & ~1
            if handled < due:
                due = handled
        if self._ready:
            issue = max(earliest, self._issue_at) | 1
            if issue < due:
                due = issue
        self.next_action = due

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
            if self.input._items:
                self._handle_one_event()
                acted = True
        elif self._ready and self._issue_at <= cycle:
            self._dispatch_one()
            acted = True
        if acted:
            self._rearm(cycle + 1)

    def _handle_one_event(self) -> None:
        event = self.input.try_pop()
        if event is None:
            return
        slot = self.cam.try_lookup(event.flow_id)
        if slot is None:
            # The scheduler guarantees routing correctness (§4.3.2); a
            # miss here means the flow was evicted after routing, which
            # the moving-state protocol prevents.  Drop defensively.
            return
        entry = self.event_handler.handle(slot, event)
        self.events_accepted += 1
        if self.san is not None:
            self.san.on_event_write(
                self.fpc_id, self.cycle, slot, event.flow_id, entry.valid
            )
        if self.trace is not None:
            self.trace.emit(
                self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,
                "handle", event.flow_id, event.kind.value,
            )
        self._mark_pending(event.flow_id)

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
            slot = self.cam.try_lookup(flow_id)
            if slot is None:
                self._queued.discard(flow_id)
                continue
            self._queued.discard(flow_id)
            base = self.tcb_table.read(slot)
            snapshot = base.clone()
            entry = self.event_table.read(slot)
            if self.san is not None:
                self.san.on_construct(
                    self.fpc_id, self.cycle, slot, flow_id,
                    entry.valid if entry is not None else 0,
                )
            dup = merge_into_tcb(snapshot, entry) if entry is not None else 0
            self._in_flight.add(flow_id)
            issued = self.pipe.issue((slot, snapshot, dup), cycle)
            assert issued, "TCB manager respects the FPU initiation interval"
            self._issue_at = self.pipe.next_issue_cycle()
            self._retire_at = self.pipe.next_retire_cycle()
            return

    def _retire(self) -> None:
        for slot, tcb, dup in self.pipe.retire_ready(self.clock.cycle):
            result = self.fpu.process(tcb, dup, self.now_fn())
            self.tcbs_processed += 1
            self._in_flight.discard(tcb.flow_id)
            if tcb.flow_id in self._queued:
                self._ready += 1  # re-queued while in the pipeline
            self.out_results.append(result)
            if tcb.flow_id in self._evict_requested:
                # The evict checker consults the request register, not
                # the TCB image: a request that arrived while this TCB
                # was in the pipeline set the flag on the table copy
                # only, and the write-back below would silently drop it
                # — leaving the flow MOVING forever.
                tcb.evict_flag = True
            if tcb.evict_flag and tcb.flow_id in self._evict_requested:
                # Evict checker: divert the *processed* TCB (§4.3.2) —
                # but only once every already-routed event has been
                # handled and processed (the scheduler's moving state
                # blocks new routing, so the backlog is bounded).
                entry = self.event_table.read(slot)
                backlog = (entry is not None and entry.valid) or any(
                    ev.flow_id == tcb.flow_id for ev in self.input
                )
                if backlog:
                    self.tcb_table.write(slot, tcb)
                    if self.san is not None:
                        self.san.on_tcb_write(
                            self.fpc_id, self.cycle, slot, tcb.flow_id,
                            self.fpu.writer_id,
                        )
                    self._mark_pending(tcb.flow_id, priority=True)
                    continue
                self._evict_requested.discard(tcb.flow_id)
                self.cam.remove(tcb.flow_id)
                self.tcb_table.clear(slot)
                self.event_table.clear(slot)
                tcb.evict_flag = False
                if self.san is not None:
                    self.san.on_evicted(
                        self.fpc_id, self.cycle, slot, tcb.flow_id
                    )
                self.out_evicted.append(tcb)
                if self.notify_scheduler is not None:
                    self.notify_scheduler()
                if self.trace is not None:
                    self.trace.emit(
                        self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,
                        "evict", tcb.flow_id, tcb.state.value,
                    )
                continue
            current_slot = self.cam.try_lookup(tcb.flow_id)
            if current_slot is not None:
                self.tcb_table.write(current_slot, tcb)
                if self.san is not None:
                    self.san.on_tcb_write(
                        self.fpc_id, self.cycle, current_slot, tcb.flow_id,
                        self.fpu.writer_id,
                    )
                entry = self.event_table.read(current_slot)
                if entry is not None and entry.valid:
                    # Events accumulated while we were in the pipeline.
                    self._mark_pending(tcb.flow_id)
        head = self.pipe.next_retire_cycle()
        self._retire_at = NEVER if head is None else head

    def drain_results(self) -> List[ProcessResult]:
        results, self.out_results = self.out_results, []
        return results

    def drain_evicted(self) -> List[Tcb]:
        evicted, self.out_evicted = self.out_evicted, []
        return evicted

    def reset(self) -> None:
        super().reset()
        self.input.clear()
        self._dispatch_queue.clear()
        self._queued.clear()
        self._in_flight.clear()
        self._evict_requested.clear()
        self.out_results.clear()
        self.out_evicted.clear()
        self.pipe.flush()
        self._ready = 0
        self._retire_at = NEVER
        self._issue_at = 0
        self.next_action = NEVER
