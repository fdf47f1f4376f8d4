"""Work horizons of the scheduler and the memory manager.

Both blocks publish a ``next_action`` cycle the way an FPC does
(tests/engine/test_fpc.py holds that oracle): the owner calls ``tick``
only on a cycle the horizon names.  The oracle
here is the same shape — one rig stepped by yesterday's rules (the
scheduler's whole tick body on every cycle, the memory manager's
whenever its input holds anything), one stepped by ``next_action`` —
over generated schedules that reach the waits a horizon has to get
right: a coalesce FIFO blocked by a full FPC input, a pending retry
landing twelve cycles on, a swap-in deferred behind FPCs with no
evictable victim, a migration waiting on the FPU pipeline, the DRAM
channel held by a write-back.  Same state after every cycle, same drain
order, and a gated tick never finds nothing to do.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.baseline import NullFpu
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.engine.memory_manager import CYCLE_PS, MemoryManager
from repro.engine.scheduler import PENDING_RETRY_CYCLES, Location, Scheduler
from repro.sim.component import NEVER
from repro.sim.memory import DRAMModel
from repro.tcp.tcb import Tcb

FLOWS = 7  # on 2 FPCs x 2 slots: four in SRAM, three in DRAM


class Rig:
    """A scheduler, a memory manager and two small FPCs on one clock —
    the rig's ``cycle``, as FtEngine's blocks are on the engine's —
    ticked in FtEngine's order."""

    def __init__(self, latency, interval):
        self.cycle = 0
        self.fpcs = [
            FlowProcessingCore(i, slots=2, fpu=NullFpu(latency), clock=self)
            for i in range(2)
        ]
        for fpc in self.fpcs:
            fpc.pipe.initiation_interval = interval
            fpc.input.capacity = 4  # backpressure past two queued events
        # DDR4 and a one-line cache: nearly every access holds the
        # channel for 7 cycles, 14 with a dirty write-back.
        self.manager = MemoryManager(
            DRAMModel.ddr4(), cache_entries=1,
            clock=self,
        )
        self.scheduler = Scheduler(self.fpcs, self.manager, clock=self)
        for flow_id in range(FLOWS):
            self.scheduler.register_new_flow(Tcb(flow_id=flow_id))
        self.drained = []  # (cycle, what, flow) in drain order
        self.idle_ticks = []  # gated ticks that found nothing to do
        self.sent = 0

    # ----------------------------------------------------------- input
    def apply(self, op, flow_id):
        if op == "send":
            # New data: a DRAM flow's check logic asks for a swap-in.
            self.sent += 1
            self.scheduler.submit(user_send_event(flow_id, self.sent, 0.0))
        elif op == "dup":
            # Never coalesces, never makes a DRAM flow sendable.
            self.scheduler.submit(
                TcpEvent(EventKind.RX_PACKET, flow_id, dup_incr=1, coalescible=False)
            )

    # ------------------------------------------------------------ steps
    def _tick_fpcs(self):
        for fpc in self.fpcs:
            fpc.tick()  # the FPC's horizon has its own oracle
            for result in fpc.drain_results():
                self.drained.append((self.cycle, "result", result.tcb.flow_id))

    def step_reference(self):
        self.cycle += 1
        scheduler, manager = self.scheduler, self.manager
        # The scheduler's tick body, unguarded, every cycle.
        scheduler._retry_pending()
        for fifo in scheduler.coalesce_fifos:
            if not fifo.empty and scheduler._route(fifo.peek()):
                fifo.pop()
                scheduler.events_routed += 1
        scheduler._handle_swap_in_requests()
        scheduler._collect_evicted()
        # The memory manager's, whenever its input holds anything.
        if manager.input._items:
            if not manager.dram.busy_until_ps > manager.time_ps_fn():
                manager.handle_event(manager.input.pop())
        self._tick_fpcs()

    def step_gated(self):
        self.cycle += 1
        scheduler, manager = self.scheduler, self.manager
        if scheduler.next_action <= self.cycle:
            before = self._scheduler_view()
            scheduler.tick()
            blocked = scheduler._deferred_swap_ins or any(
                fifo._items for fifo in scheduler.coalesce_fifos
            )
            if self._scheduler_view() == before and not blocked:
                self.idle_ticks.append(("scheduler", self.cycle))
        if manager.next_action <= self.cycle:
            queued = len(manager.input)
            manager.tick()
            if len(manager.input) == queued:
                self.idle_ticks.append(("memory manager", self.cycle))
        self._tick_fpcs()

    # ------------------------------------------------------------ state
    def _scheduler_view(self):
        """Everything a scheduler tick can change."""
        scheduler = self.scheduler
        return (
            [[(e.flow_id, e.req) for e in fifo] for fifo in scheduler.coalesce_fifos],
            [(retry, e.flow_id, e.req) for retry, e in scheduler.pending],
            list(scheduler._deferred_swap_ins),
            sorted(scheduler._migrations),
            [dict(table) for table in scheduler.lut._tables],
            scheduler.lut.accesses,
            scheduler.events_routed, scheduler.evictions, scheduler.swap_ins,
            scheduler.pending_retries, scheduler.congestion_migrations,
            scheduler.max_pending,
            list(self.manager.swap_in_requests),
            [[(e.flow_id, e.req) for e in fpc.input] for fpc in self.fpcs],
            [len(fpc.input) for fpc in self.fpcs],
            len(self.manager.input), self.manager.input.rejects,
            [sorted(fpc._evict_requested) for fpc in self.fpcs],
            [[t.flow_id for t in fpc.out_evicted] for fpc in self.fpcs],
        )

    def state(self):
        manager = self.manager
        return (
            self._scheduler_view(),
            self.scheduler.events_submitted, self.scheduler.events_coalesced,
            manager.events_handled,
            manager.cache_hits, manager.cache_misses,
            [(e.flow_id, e.req) for e in manager.input],
            sorted(
                (flow_id, entry.valid, entry.req)
                for flow_id, (_tcb, entry) in manager._resident.items()
            ),
            manager.dram.busy_until_ps, manager.dram.requests,
            [(fpc.events_accepted, fpc.tcbs_processed, sorted(fpc.resident_flows()))
             for fpc in self.fpcs],
            list(self.drained),
        )


_OPS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["send", "send", "dup"]),
            st.integers(min_value=0, max_value=FLOWS - 1),
        ),
        max_size=3,
    ),
    min_size=1,
    max_size=150,
)


def _drive(ops, latency, interval, gated):
    rig = Rig(latency, interval)
    step = rig.step_gated if gated else rig.step_reference
    history = []
    # Run the schedule, then on through the waits it leaves behind.
    for burst in ops + [[]] * 80:
        for op, flow_id in burst:
            rig.apply(op, flow_id)
        step()
        history.append(rig.state())
    return rig, history


class TestBlockHorizons:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=_OPS,
        latency=st.sampled_from([2, 3, 14]),
        interval=st.sampled_from([2, 2, 5]),
    )
    def test_gated_ticks_match_every_cycle_ticks(self, ops, latency, interval):
        reference, expected = _drive(ops, latency, interval, gated=False)
        gated, history = _drive(ops, latency, interval, gated=True)
        for cycle, (got, want) in enumerate(zip(history, expected), start=1):
            assert got == want, f"diverged on cycle {cycle}"
        # Exact, not merely safe: a due tick acts, or is one of the two
        # blocked kinds (a route refused by a full input, a swap-in
        # deferred with no evictable victim).  A horizon that wakes a
        # block early fails here; one that oversleeps fails above.
        assert gated.idle_ticks == []

    def test_the_schedules_reach_every_wait(self):
        """One dense schedule crosses all the waits the docstring lists
        (a generated one that reaches none would prove nothing)."""
        ops = [
            [("send", (i * i) % FLOWS), ("dup", (3 * i) % FLOWS)] if i % 2 == 0
            else [("dup", (i + 2) % FLOWS)]
            for i in range(300)
        ]
        seen = set()
        rig = Rig(latency=2, interval=2)
        for burst in ops:
            for op, flow_id in burst:
                rig.apply(op, flow_id)
            rig.step_gated()
            scheduler, manager = rig.scheduler, rig.manager
            if scheduler.pending and scheduler.next_action == scheduler.pending[0][0]:
                seen.add("sleeping until a pending retry")
            if scheduler._migrations and scheduler.next_action > rig.cycle + 1:
                seen.add("sleeping through a migration")
            if scheduler._deferred_swap_ins:
                seen.add("swap-in deferred")
            if any(fifo.rejects for fpc in rig.fpcs for fifo in [fpc.input]):
                seen.add("route refused by a full input")
            if NEVER > manager.next_action > rig.cycle + 1:
                seen.add("memory manager stalled on the DRAM channel")
        assert rig.idle_ticks == []
        assert rig.scheduler.pending_retries > 0 and rig.scheduler.evictions > 0
        assert seen == {
            "sleeping until a pending retry", "sleeping through a migration",
            "swap-in deferred", "route refused by a full input",
            "memory manager stalled on the DRAM channel",
        }

    def test_a_pending_event_wakes_the_scheduler_on_its_retry_cycle(self):
        rig = Rig(latency=14, interval=2)
        scheduler = rig.scheduler
        scheduler.lut.set(0, (Location.MOVING, 0))  # as a migration leaves it
        scheduler.submit(user_send_event(0, 1, 0.0))
        assert scheduler.next_action <= rig.cycle + 1  # the next tick
        rig.step_gated()  # routed into the pending queue
        assert scheduler.next_action == rig.cycle + PENDING_RETRY_CYCLES
        ticked_at = []
        tick = scheduler.tick
        scheduler.tick = lambda: (ticked_at.append(rig.cycle), tick())
        for _ in range(2 * PENDING_RETRY_CYCLES):
            rig.step_gated()
        # It stays MOVING, so every retry re-queues it twelve cycles on.
        assert ticked_at == [1 + PENDING_RETRY_CYCLES, 1 + 2 * PENDING_RETRY_CYCLES]
        assert scheduler.pending_retries == 2

    def test_a_stalled_memory_manager_names_the_cycle_the_channel_frees(self):
        rig = Rig(latency=14, interval=2)
        manager = rig.manager
        assert manager.next_action == NEVER  # nothing queued
        for flow_id in [f for f in range(FLOWS) if f in manager][:2]:
            manager.offer_event(
                TcpEvent(EventKind.RX_PACKET, flow_id, dup_incr=1, coalescible=False)
            )
        for handled in (1, 2):
            # The channel is busy (with the rig's own stores, then with
            # the first event's cache miss): the horizon is the first
            # cycle whose stall test passes.
            free_at = manager.next_action
            assert free_at > rig.cycle + 1
            assert manager.dram.busy_until_ps <= free_at * CYCLE_PS
            assert manager.dram.busy_until_ps > (free_at - 1) * CYCLE_PS
            for _ in range(free_at - rig.cycle - 1):
                rig.step_gated()
            # Nothing is handled on a stalled cycle...
            assert manager.events_handled == handled - 1
            rig.step_gated()
            # ...and the first cycle the channel is free handles an event.
            assert manager.events_handled == handled
        assert manager.next_action == NEVER and rig.idle_ticks == []
