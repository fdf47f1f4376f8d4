"""The memory manager: DRAM-resident TCBs, TCB cache and check logic.

To support 64K flows, TCBs that do not fit in the FPCs' SRAM live in
on-board DRAM (§4.3.1).  Events routed to DRAM are *handled* — written
into the flow's event entry exactly like the FPC's event handler would —
but never processed; when the check logic determines the flow could now
send a packet, it signals the scheduler to swap the TCB into an FPC.

A direct-mapped TCB cache (:class:`repro.mem.TcbCacheHierarchy`) in
front of the DRAM absorbs accesses to hot flows; misses pay the DRAM
channel occupancy that throttles Fig 13's DRAM curve past 1024 flows.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, ClassVar, Deque, Dict, List, Optional, Tuple

from ..mem.hierarchy import TcbCacheHierarchy
from ..sim.component import NEVER, Component, OwnersCycle
from ..sim.memory import DRAMModel
from ..tcp.seq import seq_max, seq_sub
from ..tcp.tcb import TCB_SIZE_BYTES, Tcb
from .event_handler import V_ACK, V_FLAGS, V_REQ, V_WND, EventEntry, accumulate_event
from .events import TcpEvent

DEFAULT_CACHE_ENTRIES = 512

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
    #: The input queue's depth, in events: :meth:`offer_event` refuses
    #: past it.
    depth: ClassVar[int] = 256

    def __init__(
        self,
        dram: DRAMModel,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        time_ps_fn: Optional[Callable[[], int]] = None,
        clock=None,
    ) -> None:
        super().__init__("memory-manager", clock)
        self.dram = dram
        self.cache_entries = cache_entries
        # Fall back to the 250 MHz cycle clock when no time source is
        # wired in.
        self.time_ps_fn = time_ps_fn or (lambda: self.clock.cycle * CYCLE_PS)
        self.cache = TcbCacheHierarchy(cache_entries)

        #: Functional home of DRAM-resident state: flow -> (TCB, events);
        #: the events entry is None until the first event for the flow
        #: arrives here (most DRAM flows are idle: they keep no entry).
        self._resident: Dict[int, Tuple[Tcb, Optional[EventEntry]]] = {}

        #: The input FIFO, at most :attr:`depth` events.
        self.input: Deque[TcpEvent] = deque()
        #: Check-logic output: flows that can now send (§4.3.1).
        self.swap_in_requests: List[int] = []
        self._swap_in_pending: set = set()
        #: Called when a swap-in request is queued (the scheduler, which
        #: drains them, hangs its wake here), or None.
        self.notify_scheduler: Optional[Callable[[], None]] = None
        #: Called with an event whose flow was swapped in while the
        #: event waited in :attr:`input` (the scheduler hangs its
        #: pending queue here, which routes it again to wherever the
        #: flow is by then), or None.
        self.return_event: Optional[Callable[[TcpEvent], None]] = None
        #: The work horizon, in cycles of ``time_ps_fn``'s clock: the
        #: first on which :meth:`tick` handles an event — queued input
        #: and a free DRAM channel — NEVER while the input is empty.
        #: Every cycle short of it is a stalled tick, a no-op.
        self.next_action = NEVER

        self.events_handled = 0

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

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    def store(self, tcb: Tcb, entry: Optional[EventEntry] = None) -> None:
        """Accept an evicted TCB from an FPC (swap-out completes here)."""
        if self.trace is not None:
            self.trace.emit(
                self.time_ps_fn(), "engine.mem", self.trace_name,
                "store", tcb.flow_id, tcb.state.value,
            )
        # The FPU's transient scratch keys leave an emptied ``cc`` holding
        # a grown table; the stored copy gets a compact one.
        tcb.cc = dict(tcb.cc)
        self._resident[tcb.flow_id] = (tcb, entry)
        if self.san is not None:
            self.san.on_dram_store(self.cycle, tcb.flow_id)
        self._touch_cache(tcb.flow_id)
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
        if flow_id in self.cache:
            self.cache.invalidate(flow_id)
            if self.san is not None:
                self.san.on_cache_invalidate(flow_id)
        else:
            self.dram.transfer(TCB_SIZE_BYTES, self.time_ps_fn())  # DRAM read
        if self.san is not None:
            self.san.on_dram_take(self.cycle, flow_id)
        self._swap_in_pending.discard(flow_id)
        if self.next_action != NEVER:
            self._rearm(self.next_action)  # the read may hold the channel
        tcb, entry = self._resident.pop(flow_id)
        return tcb, entry if entry is not None else EventEntry()

    def peek_tcb(self, flow_id: int) -> Optional[Tcb]:
        pair = self._resident.get(flow_id)
        return None if pair is None else pair[0]

    # -------------------------------------------------------------- cache
    def _touch_cache(self, flow_id: int) -> None:
        """Access the TCB through the cache.

        A miss charges the DRAM channel for a TCB read, after the dirty
        write-back of the line it displaced; a hit is free — that is the
        whole point of the cache (§4.3.1).
        """
        hit, victim = self.cache.access(flow_id)
        if hit:
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps_fn(), "engine.mem", self.trace_name,
                    "hit", flow_id,
                )
            return
        now_ps = self.time_ps_fn()
        if self.trace is not None:
            self.trace.emit(
                now_ps, "engine.mem", self.trace_name, "miss", flow_id,
                "clean" if victim is None else f"writeback={victim}",
            )
        if victim is not None:
            self.dram.transfer(TCB_SIZE_BYTES, now_ps)  # dirty write-back
            if self.san is not None:
                self.san.on_cache_evict(self.cycle, victim)
        self.dram.transfer(TCB_SIZE_BYTES, now_ps)  # line fill
        if self.san is not None:
            self.san.on_cache_fill(self.cycle, flow_id)

    # -------------------------------------------------------------- input
    def offer_event(self, event: TcpEvent) -> bool:
        if len(self.input) >= self.depth:
            return False
        self.input.append(event)
        if self.next_action == NEVER:
            # The scheduler routes before this block's turn in a cycle.
            self._rearm(int(self.time_ps_fn() // CYCLE_PS))
        return True

    def _rearm(self, earliest: int) -> None:
        """Publish :attr:`next_action`: ``earliest``, or the first cycle
        the DRAM channel is free if that is later.

        The one float guard left on the simulated path: the calibrated
        DRAM model's ``busy_until_ps`` carries fractional picoseconds,
        so :meth:`tick`'s own comparison decides, and the horizon is the
        cycle the per-cycle stall test would first pass on.
        """
        if not self.input:
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
        if not self.dram.busy_until_ps > now_ps and self.input:
            self.handle_event(self.input.popleft())
        self._rearm(int(now_ps // CYCLE_PS) + 1)

    def handle_event(self, event: TcpEvent) -> None:
        """Handle (accumulate) one event against the DRAM-resident TCB."""
        pair = self._resident.get(event.flow_id)
        if pair is None:
            # Swapped in after routing: dropping it here would lose a
            # cumulative pointer (a request's last ``req``) for good.
            if self.return_event is None:
                raise KeyError(f"flow {event.flow_id} is not DRAM-resident")
            self.return_event(event)
            return
        tcb, entry = pair
        if entry is None:
            entry = EventEntry()
            self._resident[event.flow_id] = (tcb, entry)
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
