"""The dual-memory race sanitizer: TSAN-style shadow state for TCBs.

F4T splits TCP's atomic read-modify-write across two writers over two
memories (§4.2.3): the **event handler** owns the event table, the
**FPU** owns the TCB table, and per-field valid bits let the TCB manager
overlay the two.  The migration protocol (Fig 6) additionally moves TCBs
between SRAM and DRAM mid-stream.  The design is race-free only while
three contracts hold:

1. the two writers never hit the same memory in the same cycle
   (**dual-writer** conflict);
2. a valid bit is set if and only if its field was accumulated since the
   last TCB construction (**valid-bit** violation — a set-but-stale bit
   makes the FPU consume garbage, a cleared-but-accumulated bit silently
   drops an update);
3. once a flow's evict flag is set, no write may land in a stale copy —
   SRAM writes after the TCB left, or DRAM writes while the live copy is
   still in an FPC (**lost-update** during the migration window).

The sanitizer mirrors every instrumented write into shadow state keyed
by (table, slot) and (flow -> location), and reports a
:class:`~repro.check.findings.RaceFinding` at the cycle a contract
breaks.  Hook points live in the FPC (event handler, TCB manager, FPU
writeback, evict checker), the memory manager, and the scheduler, all
behind the same ``if self.san is not None`` near-zero-cost guard the
trace bus uses.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..engine.event_handler import valid_bit_names
from .findings import RaceFinding, Sanitizer

#: Writer ids carried on every shadow write.
WRITER_EVENT_HANDLER = "event-handler"
WRITER_FPU = "fpu"
WRITER_SWAP_IN = "swap-in"
WRITER_MEMMGR = "memmgr"


class RaceSanitizer(Sanitizer[RaceFinding]):
    """Shadow-state checker for the dual-memory TCB scheme.

    Attach with :func:`attach_sanitizer`; read :attr:`findings` after
    the run (or :meth:`report` for the rendered listing).  The sanitizer
    is tolerant of mid-run attachment: flows it has never seen are
    adopted on first sight rather than reported.  Its tally counts
    checked writes.
    """

    name = "race"
    tally_key = "writes_checked"
    tally_noun = "checked writes"

    def __init__(self) -> None:
        super().__init__()
        #: Namespace prefix ("a/", "b/") of this view; "" on the root.
        self.label = ""
        #: (table, slot) -> (cycle, writer) of the most recent write.
        self._last_write: Dict[Tuple[str, int], Tuple[int, str]] = {}
        #: (label, fpc_id, slot) -> expected valid-bit mask (shadow copy).
        self._shadow_valid: Dict[Tuple[str, int, int], int] = {}
        #: (label, flow) -> "fpc<N>" | "dram" | "moving".
        self._location: Dict[Tuple[str, int], str] = {}
        #: (label, flow) -> cycle the evict flag was set (migration window).
        self._evict_pending: Dict[Tuple[str, int], int] = {}
        #: (label, flow) of every cached TCB line: shadow of the TCB
        #: cache (repro.mem) — a cache line is only legal while the
        #: flow's authoritative copy is DRAM-resident.
        self._cached: Set[Tuple[str, int]] = set()

    def scoped(self, label: str) -> "RaceSanitizer":
        """A view of this sanitizer with every key namespaced by ``label``.

        A testbed runs two engines whose FPC ids and flow ids both start
        at zero; scoping keeps ``a/fpc0`` and ``b/fpc0`` (and their flow
        0s) from clobbering each other's shadow state.  Views share all
        state with the root: findings land in one list, one report.
        """
        return self._view(label=f"{label}/" if label else "")

    def _fpc_name(self, fpc_id: int) -> str:
        return f"{self.label}fpc{fpc_id}"

    def _flow_key(self, flow_id: int) -> Tuple[str, int]:
        return (self.label, flow_id)

    def _emit(
        self, kind: str, cycle: int, flow_id: int, table: str, slot: int,
        writer: str, message: str,
    ) -> None:
        self._record(RaceFinding(
            kind=kind, cycle=cycle, flow_id=flow_id, table=table,
            slot=slot, writer=writer, message=message,
        ))

    # ----------------------------------------------------- shadow writes
    def _record_write(
        self, cycle: int, table: str, slot: int, writer: str, flow_id: int
    ) -> None:
        self._counts["tally"] += 1
        previous = self._last_write.get((table, slot))
        if previous is not None:
            prev_cycle, prev_writer = previous
            if prev_cycle == cycle and prev_writer != writer:
                self._emit(
                    "dual-writer", cycle, flow_id, table, slot, writer,
                    f"same-cycle write collides with {prev_writer}; each "
                    "memory of the dual-memory scheme has exactly one "
                    "writer (§4.2.3)",
                )
        self._last_write[(table, slot)] = (cycle, writer)

    def _check_resident(
        self, cycle: int, fpc_id: int, slot: int, flow_id: int, table: str,
        writer: str,
    ) -> None:
        key = self._flow_key(flow_id)
        where = self._location.get(key)
        if where is None:
            self._location[key] = f"fpc{fpc_id}"  # adopt mid-run
        elif where != f"fpc{fpc_id}":
            self._emit(
                "stale-write", cycle, flow_id, table, slot, writer,
                f"write lands in {self._fpc_name(fpc_id)} but the flow's "
                f"live copy is in {self.label}{where}; the location LUT "
                "and the write raced",
            )

    # ---------------------------------------------------------- FPC hooks
    def on_event_write(
        self, fpc_id: int, cycle: int, slot: int, flow_id: int, valid: int
    ) -> None:
        """Event handler accumulated an event into the event table."""
        table = f"{self._fpc_name(fpc_id)}.events"
        self._record_write(cycle, table, slot, WRITER_EVENT_HANDLER, flow_id)
        self._check_resident(
            cycle, fpc_id, slot, flow_id, table, WRITER_EVENT_HANDLER
        )
        self._shadow_valid[(self.label, fpc_id, slot)] = valid

    def on_tcb_write(
        self, fpc_id: int, cycle: int, slot: int, flow_id: int,
        writer: str = WRITER_FPU,
    ) -> None:
        """FPU wrote a processed TCB back into the TCB table."""
        table = f"{self._fpc_name(fpc_id)}.tcb"
        self._record_write(cycle, table, slot, writer, flow_id)
        self._check_resident(cycle, fpc_id, slot, flow_id, table, writer)

    def on_accept(
        self, fpc_id: int, cycle: int, slot: int, flow_id: int, valid: int
    ) -> None:
        """A TCB (new flow or swap-in) landed via the dedicated port."""
        name = self._fpc_name(fpc_id)
        self._record_write(cycle, f"{name}.tcb", slot, WRITER_SWAP_IN, flow_id)
        self._record_write(
            cycle, f"{name}.events", slot, WRITER_SWAP_IN, flow_id
        )
        self._shadow_valid[(self.label, fpc_id, slot)] = valid
        self._location[self._flow_key(flow_id)] = f"fpc{fpc_id}"
        self._evict_pending.pop(self._flow_key(flow_id), None)

    def on_construct(
        self, fpc_id: int, cycle: int, slot: int, flow_id: int, valid: int
    ) -> None:
        """TCB manager merges the event entry before dispatch (§4.2.3 ②).

        Compares the entry's actual valid bits with the shadow copy the
        sanitizer accumulated from instrumented writes.  A bit that is
        set without a matching accumulate means the merge will read a
        stale/garbage field; a bit that was accumulated but is now clear
        means the update is silently lost.
        """
        key = (self.label, fpc_id, slot)
        expected = self._shadow_valid.get(key)
        table = f"{self._fpc_name(fpc_id)}.events"
        if expected is not None and expected != valid:
            ghost = valid & ~expected
            lost = expected & ~valid
            if ghost:
                self._emit(
                    "valid-bit", cycle, flow_id, table, slot, "tcb-manager",
                    f"field(s) {valid_bit_names(ghost)} are marked valid "
                    "but were never accumulated; the FPU would consume a "
                    "stale value",
                )
            if lost:
                self._emit(
                    "valid-bit", cycle, flow_id, table, slot, "tcb-manager",
                    f"field(s) {valid_bit_names(lost)} were accumulated "
                    "but their valid bits are clear; the update is lost",
                )
        # The merge clears every valid bit (§4.2.3 step ④).
        self._shadow_valid[key] = 0

    def on_evict_request(self, fpc_id: int, cycle: int, flow_id: int) -> None:
        """Scheduler set the evict flag; the migration window opens."""
        self._evict_pending.setdefault(self._flow_key(flow_id), cycle)

    def on_evicted(
        self, fpc_id: int, cycle: int, slot: int, flow_id: int
    ) -> None:
        """Evict checker diverted the processed TCB; SRAM copy is dead."""
        self._location[self._flow_key(flow_id)] = "moving"
        self.on_slot_clear(fpc_id, slot)

    def on_slot_clear(self, fpc_id: int, slot: int) -> None:
        """An SRAM slot was freed; start a fresh shadow epoch for it."""
        name = self._fpc_name(fpc_id)
        self._last_write.pop((f"{name}.tcb", slot), None)
        self._last_write.pop((f"{name}.events", slot), None)
        self._shadow_valid.pop((self.label, fpc_id, slot), None)

    # ------------------------------------------------- memory-manager hooks
    def on_dram_store(self, cycle: int, flow_id: int) -> None:
        """Swap-out completed: DRAM now holds the authoritative copy."""
        self._location[self._flow_key(flow_id)] = "dram"
        self._evict_pending.pop(self._flow_key(flow_id), None)

    def on_dram_take(self, cycle: int, flow_id: int) -> None:
        """Swap-in started: the DRAM copy left for an FPC."""
        key = self._flow_key(flow_id)
        if key in self._cached:
            # The manager invalidates the cache line *before* the take
            # lands; a line that survives the take would serve stale TCB
            # state to the next DRAM access.
            self._emit(
                "ghost-cache-line", cycle, flow_id,
                f"{self.label}tcb-cache", -1, WRITER_MEMMGR,
                "cache line still present when the flow's TCB left DRAM; "
                "the line must be invalidated before swap-in",
            )
            self._cached.discard(key)
        self._location[key] = "moving"

    def on_dram_write(self, cycle: int, flow_id: int, valid: int) -> None:
        """Memory manager handled an event against the DRAM-resident TCB."""
        self._counts["tally"] += 1
        key = self._flow_key(flow_id)
        where = self._location.get(key)
        if where is None:
            self._location[key] = "dram"  # adopt mid-run
            return
        if where != "dram":
            window = self._evict_pending.get(key)
            detail = (
                f"during the evict window open since cycle {window}"
                if window is not None
                else f"while the live copy is in {where}"
            )
            self._emit(
                "lost-update", cycle, flow_id, f"{self.label}dram", -1,
                WRITER_MEMMGR,
                f"event handled against the stale DRAM copy {detail}; "
                "the update never reaches the live TCB (Fig 6 hazard)",
            )

    # ------------------------------------------------------ TCB-cache hooks
    def on_cache_fill(self, cycle: int, flow_id: int) -> None:
        """A miss filled a line for ``flow_id``.

        The flow must be DRAM-resident (a cache in front of DRAM cannot
        cache what DRAM does not hold), and the direct-mapped cache
        holds at most one line per flow.
        """
        self._counts["tally"] += 1
        key = self._flow_key(flow_id)
        where = self._location.get(key)
        if where is None:
            self._location[key] = "dram"  # adopt mid-run
        elif where != "dram":
            self._emit(
                "ghost-cache-line", cycle, flow_id,
                f"{self.label}tcb-cache", -1, WRITER_MEMMGR,
                f"cache line filled while the flow's live copy is in "
                f"{where}; the line would shadow a TCB DRAM does not own",
            )
        if key in self._cached:
            self._emit(
                "dup-cache-line", cycle, flow_id,
                f"{self.label}tcb-cache", -1, WRITER_MEMMGR,
                "line filled for a flow the cache already holds; a "
                "cached flow's access is a hit",
            )
        self._cached.add(key)

    def on_cache_evict(self, cycle: int, flow_id: int) -> None:
        """A miss wrote a displaced line back to DRAM."""
        self._counts["tally"] += 1
        key = self._flow_key(flow_id)
        if key not in self._cached:
            self._emit(
                "ghost-cache-line", cycle, flow_id,
                f"{self.label}tcb-cache", -1, WRITER_MEMMGR,
                "write-back of a line the shadow state never saw filled",
            )
            return
        self._cached.remove(key)

    def on_cache_invalidate(self, flow_id: int) -> None:
        """The manager dropped a flow's line (take/teardown path)."""
        self._cached.discard(self._flow_key(flow_id))

    # ----------------------------------------------------- scheduler hooks
    def on_flow_closed(self, flow_id: int) -> None:
        """Flow deregistered; forget everything about it."""
        self._location.pop(self._flow_key(flow_id), None)
        self._evict_pending.pop(self._flow_key(flow_id), None)
        self._cached.discard(self._flow_key(flow_id))


def attach_sanitizer(target: object, san: Optional[RaceSanitizer]) -> None:
    """Point an engine (or a whole testbed) at ``san``; None detaches.

    Accepts a :class:`~repro.engine.testbed.Testbed`, an
    :class:`~repro.engine.ftengine.FtEngine`, or any object exposing
    ``fpcs`` / ``memory_manager`` / ``scheduler``.
    """
    engine_a = getattr(target, "engine_a", None)
    engine_b = getattr(target, "engine_b", None)
    if engine_a is not None and engine_b is not None:
        # Two engines share fpc ids and flow ids; give each a namespace
        # (mirroring the obs hooks' a/b labels).
        labelled = [(engine_a, "a"), (engine_b, "b")]
    else:
        labelled = [(target, "")]
    for engine, label in labelled:
        view = san if san is None or not label else san.scoped(label)
        for fpc in getattr(engine, "fpcs", []):
            fpc.san = view
        manager = getattr(engine, "memory_manager", None)
        if manager is not None:
            manager.san = view
        scheduler = getattr(engine, "scheduler", None)
        if scheduler is not None:
            scheduler.san = view


def run_race_check(
    scenario_name: str = "churn", seed: Optional[int] = None
) -> Tuple[RaceSanitizer, object]:
    """Run a traffic scenario with the sanitizer attached to both
    engines of a testbed.  Returns the sanitizer and the traffic result.

    What the default reaches: ``churn`` opens and closes a connection
    per request on a design with room for every flow in SRAM, so it
    checks the event-handler, FPU and accept-port writes and the valid
    bits (320 checked writes over 8 completed requests at seed 7), but
    it never evicts: no evict, memory-manager or TCB-cache hook runs.
    The Fig 6 migration protocol and the DRAM tier are reached only by
    a scenario with more flows than FPC slots.
    """
    from ..engine.testbed import Testbed
    from ..traffic import LoadEngine, get_scenario

    scenario = get_scenario(scenario_name, seed=seed)
    testbed = Testbed(wire=scenario.build_wire())
    san = RaceSanitizer()
    attach_sanitizer(testbed, san)
    result = LoadEngine(scenario, testbed=testbed).run()
    return san, result
