"""The memory manager: DRAM-resident TCBs, TCB cache and check logic.

To support 64K flows, TCBs that do not fit in the FPCs' SRAM live in
on-board DRAM (§4.3.1).  Events routed to DRAM are *handled* — written
into the flow's event entry exactly like the FPC's event handler would —
but never processed; when the check logic determines the flow could now
send a packet, it signals the scheduler to swap the TCB into an FPC.

A TCB cache in front of the DRAM absorbs accesses to hot flows; misses
pay the DRAM channel occupancy that throttles Fig 13's DRAM curve past
1024 flows.  The cache is a :class:`repro.mem.TcbCacheHierarchy`: the
default geometry (one direct-mapped level of ``cache_entries`` sets) is
the paper's scheme and reproduces the pre-hierarchy pinned trace
fingerprints bit for bit; non-default geometries (multi-level,
set-associative, sketch-driven eviction) are the ``repro.mem``
million-flow upgrade path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..mem.hierarchy import CacheGeometry, TcbCacheHierarchy
from ..sim.component import NEVER, Component, OwnersCycle
from ..sim.fifo import Fifo
from ..sim.memory import DRAMModel
from ..tcp.seq import seq_max, seq_sub
from ..tcp.tcb import TCB_SIZE_BYTES, Tcb
from .event_handler import V_ACK, V_FLAGS, V_REQ, V_WND, EventEntry, accumulate_event
from .events import TcpEvent

DEFAULT_CACHE_ENTRIES = 512
DEFAULT_INPUT_DEPTH = 256

#: One 250 MHz cycle in exact integer picoseconds (ftengine's
#: ENGINE_PERIOD_PS; that module imports this one).
CYCLE_PS = 4000


def check_logic(tcb: Tcb, entry: EventEntry) -> bool:
    """Would this DRAM-resident flow emit a packet if processed? (§4.3.1)

    What :meth:`Tcb.can_send_now` and the connection-control tests
    would say of ``tcb`` with ``entry``'s valid fields laid over it —
    worked out from the two records as they are, because the check
    logic must neither process nor write back.  (Merging copies gives
    the same answer; tests/engine/_check_logic_oracle.py holds that
    form and compares.)
    """
    valid = entry.valid
    cc = tcb.cc
    # A cumulative ACK, a connect request, or connection control
    # (SYN/SYN-ACK replies, FIN progress, RST teardown) is processed in
    # an FPC whatever the windows say.
    if valid & V_ACK or cc.get("_latest_ack") is not None or cc.get("_connect_req"):
        return True
    if tcb.syn_received or tcb.fin_received or tcb.rst_received:
        return True
    if tcb.ack_pending or tcb.timeout_pending or tcb.dupacks >= 3:
        return True
    close = tcb.close_requested
    if valid & V_FLAGS:
        if (
            entry.syn or entry.fin or entry.rst
            or entry.connect or entry.timeout or entry.ack_needed
        ):
            return True
        close = close or entry.close
    req = seq_max(tcb.req, entry.req) if valid & V_REQ else tcb.req
    if seq_sub(req, tcb.snd_nxt) <= 0:  # nothing unsent: only a FIN could go
        return bool(close and not tcb.fin_sent)
    snd_wnd = entry.wnd if valid & V_WND else tcb.snd_wnd
    if snd_wnd == 0:
        return True  # zero-window probe
    in_flight = max(0, seq_sub(tcb.snd_nxt, tcb.snd_una))
    return min(tcb.cwnd, snd_wnd) > in_flight


class MemoryManager(Component):
    """Handles events for DRAM-resident flows and feeds swap-in requests."""

    cycle = OwnersCycle()

    def __init__(
        self,
        dram: DRAMModel,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        time_ps_fn: Optional[Callable[[], int]] = None,
        geometry: Optional[Union[str, CacheGeometry]] = None,
        sketch=None,
        sketch_own_updates: bool = True,
        clock=None,
    ) -> None:
        super().__init__("memory-manager", clock)
        self.dram = dram
        self.cache_entries = cache_entries
        # Fall back to the 250 MHz cycle clock when no time source is
        # wired in.
        self.time_ps_fn = time_ps_fn or (lambda: self.clock.cycle * CYCLE_PS)

        if geometry is None:
            geometry = CacheGeometry.direct_mapped(cache_entries)
        elif isinstance(geometry, str):
            geometry = CacheGeometry.parse(geometry)
        #: The TCB cache model.  ``sketch_own_updates=False`` when a
        #: scheduler-side FlowHeat advisor already feeds the shared
        #: sketch (avoids double-counting each event).
        self.cache = TcbCacheHierarchy(
            geometry, sketch=sketch, own_updates=sketch_own_updates
        )

        #: Functional home of DRAM-resident state: flow -> (TCB, events).
        self._resident: Dict[int, Tuple[Tcb, EventEntry]] = {}

        self.input: Fifo[TcpEvent] = Fifo(DEFAULT_INPUT_DEPTH, "memmgr.in")
        #: Check-logic output: flows that can now send (§4.3.1).
        self.swap_in_requests: List[int] = []
        self._swap_in_pending: set = set()
        #: Called when a swap-in request is queued (the scheduler, which
        #: drains them, hangs its wake here), or None.
        self.notify_scheduler: Optional[Callable[[], None]] = None
        #: The work horizon, in cycles of ``time_ps_fn``'s clock: the
        #: first on which :meth:`tick` handles an event — queued input
        #: and a free DRAM channel — NEVER while the input is empty.
        #: Every cycle short of it is a stalled tick, a no-op.
        self.next_action = NEVER

        self.events_handled = 0
        self.cache_hits = 0
        self.cache_misses = 0

        #: Observability (repro.obs): a TraceBus, or None (free default).
        self.trace = None
        self.trace_name = self.name
        #: Race sanitizer (repro.check): shadow-state checker, or None.
        self.san = None

    # ------------------------------------------------------------- stores
    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._resident

    @property
    def flow_count(self) -> int:
        return len(self._resident)

    def store(self, tcb: Tcb, entry: Optional[EventEntry] = None) -> None:
        """Accept an evicted TCB from an FPC (swap-out completes here)."""
        if self.trace is not None:
            self.trace.emit(
                self.time_ps_fn(), "engine.mem", self.trace_name,
                "store", tcb.flow_id, tcb.state.value,
            )
        self._resident[tcb.flow_id] = (tcb, entry if entry is not None else EventEntry())
        if self.san is not None:
            self.san.on_dram_store(self.cycle, tcb.flow_id)
        self._touch_cache(tcb.flow_id, write=True)
        self._swap_in_pending.discard(tcb.flow_id)
        if self.next_action != NEVER:
            self._rearm(self.next_action)  # the write may hold the channel

    def take(self, flow_id: int) -> Tuple[Tcb, EventEntry]:
        """Remove and return a flow's state for swap-in to an FPC."""
        if flow_id not in self._resident:
            raise KeyError(f"flow {flow_id} is not DRAM-resident")
        if self.trace is not None:
            self.trace.emit(
                self.time_ps_fn(), "engine.mem", self.trace_name,
                "take", flow_id,
            )
        self._charge_dram(read=True, flow_id=flow_id, evicting=True)
        if self.san is not None:
            self.san.on_dram_take(self.cycle, flow_id)
        self._swap_in_pending.discard(flow_id)
        if self.next_action != NEVER:
            self._rearm(self.next_action)  # the read may hold the channel
        return self._resident.pop(flow_id)

    def peek_tcb(self, flow_id: int) -> Optional[Tcb]:
        pair = self._resident.get(flow_id)
        return None if pair is None else pair[0]

    # -------------------------------------------------------------- cache
    def _touch_cache(self, flow_id: int, write: bool = False) -> bool:
        """Access the TCB through the cache; returns True on a hit.

        A miss charges the DRAM channel for a TCB read (plus the dirty
        write-back of each line the fill cascade pushed out); a hit is
        free — that is the whole point of the cache (§4.3.1).  In the
        default direct-mapped geometry the emitted hit/miss/writeback
        sequence and DRAM charge order are identical to the original
        hardcoded cache (the pinned fingerprints are the oracle).
        """
        outcome = self.cache.access(flow_id)
        if outcome.hit:
            self.cache_hits += 1
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps_fn(), "engine.mem", self.trace_name,
                    "hit", flow_id,
                )
            if outcome.promoted_from is not None and self.trace is not None:
                self.trace.emit(
                    self.time_ps_fn(), "engine.mem", self.trace_name,
                    "promote", flow_id, f"l{outcome.promoted_from}",
                )
        else:
            self.cache_misses += 1
            now_ps = self.time_ps_fn()
            if self.trace is not None:
                self.trace.emit(
                    now_ps, "engine.mem", self.trace_name, "miss", flow_id,
                    "clean" if not outcome.writebacks
                    else f"writeback={outcome.writebacks[0]}",
                )
        self._apply_outcome(flow_id, outcome)
        return outcome.hit

    def _apply_outcome(self, flow_id: int, outcome) -> None:
        """Charge DRAM and drive trace/sanitizer from one cache access."""
        now_ps = self.time_ps_fn()
        for victim in outcome.writebacks:
            self.dram.transfer(TCB_SIZE_BYTES, now_ps)  # dirty write-back
            if self.san is not None:
                self.san.on_cache_evict(self.cycle, victim, writeback=True)
        if not outcome.hit:
            self.dram.transfer(TCB_SIZE_BYTES, now_ps)  # line fill
        for level, filled in outcome.fills:
            if level > 0 and filled != flow_id and self.trace is not None:
                self.trace.emit(
                    now_ps, "engine.mem", self.trace_name,
                    "demote", filled, f"l{level}",
                )
            if self.san is not None:
                self.san.on_cache_fill(self.cycle, filled, level)

    def _charge_dram(self, read: bool, flow_id: int, evicting: bool = False) -> None:
        now_ps = self.time_ps_fn()
        if self.cache.contains(flow_id):
            if evicting:
                self.cache.invalidate(flow_id)
                if self.san is not None:
                    self.san.on_cache_invalidate(flow_id)
            return
        self.dram.transfer(TCB_SIZE_BYTES, now_ps)

    # -------------------------------------------------------------- input
    def offer_event(self, event: TcpEvent) -> bool:
        if not self.input.push(event):
            return False
        if self.next_action == NEVER:
            # The scheduler routes before this block's turn in a cycle.
            self._rearm(int(self.time_ps_fn() // CYCLE_PS))
        return True

    @property
    def backpressure(self) -> bool:
        return len(self.input) > self.input.capacity // 2

    def _rearm(self, earliest: int) -> None:
        """Publish :attr:`next_action`: ``earliest``, or the first cycle
        the DRAM channel is free if that is later.

        Guarded like ``first_cycle_at``: :meth:`tick`'s own comparison
        decides, so the horizon is the cycle the per-cycle stall test
        would first pass on.
        """
        if not self.input._items:
            self.next_action = NEVER
            return
        busy_until_ps = self.dram.busy_until_ps
        if busy_until_ps > earliest * CYCLE_PS:
            earliest = int(busy_until_ps // CYCLE_PS)
            while busy_until_ps > earliest * CYCLE_PS:
                earliest += 1
            while not busy_until_ps > (earliest - 1) * CYCLE_PS:
                earliest -= 1
        self.next_action = earliest

    def tick(self) -> None:
        if self.clock is self:
            self.cycle += 1
        now_ps = self.time_ps_fn()
        # The DRAM channel gates throughput: while it is busy we stall,
        # which is exactly the Fig 13 bottleneck.
        if not self.dram.busy_until_ps > now_ps:
            event = self.input.try_pop()
            if event is not None:
                self.handle_event(event)
        self._rearm(int(now_ps // CYCLE_PS) + 1)

    def handle_event(self, event: TcpEvent) -> None:
        """Handle (accumulate) one event against the DRAM-resident TCB."""
        pair = self._resident.get(event.flow_id)
        if pair is None:
            return  # flow migrated away after routing; scheduler retries
        tcb, entry = pair
        self._touch_cache(event.flow_id)
        accumulate_event(entry, event)
        self.events_handled += 1
        if self.san is not None:
            self.san.on_dram_write(self.cycle, event.flow_id, entry.valid)
        needs_processing = check_logic(tcb, entry)
        if self.trace is not None:
            self.trace.emit(
                self.time_ps_fn(), "engine.mem", self.trace_name,
                "handle", event.flow_id, event.kind.value,
            )
        if needs_processing and event.flow_id not in self._swap_in_pending:
            self._swap_in_pending.add(event.flow_id)
            self.swap_in_requests.append(event.flow_id)
            if self.notify_scheduler is not None:
                self.notify_scheduler()
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps_fn(), "engine.mem", self.trace_name,
                    "swapreq", event.flow_id,
                )

    def drain_swap_in_requests(self) -> List[int]:
        requests, self.swap_in_requests = self.swap_in_requests, []
        return requests
