"""The scheduler: routing, coalescing, migration protocol (§4.3, §4.4)."""

import pytest

from repro.engine.baseline import NullFpu
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.engine.memory_manager import MemoryManager
from repro.engine.scheduler import Location, PENDING_RETRY_CYCLES, Scheduler
from repro.mem.advisor import FlowHeat
from repro.mem.sketch import make_sketch
from repro.sim.memory import DRAMModel
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb


def make_system(num_fpcs=2, slots=4, coalescing=True):
    fpcs = [
        FlowProcessingCore(i, slots=slots, fpu=NullFpu(4)) for i in range(num_fpcs)
    ]
    manager = MemoryManager(DRAMModel.hbm())
    scheduler = Scheduler(fpcs, manager, coalescing=coalescing)
    return scheduler, fpcs, manager


def spin(scheduler, fpcs, cycles):
    for _ in range(cycles):
        scheduler.tick()
        for fpc in fpcs:
            fpc.tick()
            fpc.drain_results()


class TestFlowPlacement:
    def test_new_flows_go_to_emptiest_fpc(self):
        scheduler, fpcs, _ = make_system(num_fpcs=2)
        for flow_id in range(4):
            assert scheduler.register_new_flow(Tcb(flow_id=flow_id)) is Location.FPC
        assert fpcs[0].flow_count == 2
        assert fpcs[1].flow_count == 2

    def test_overflow_goes_to_dram(self):
        scheduler, fpcs, manager = make_system(num_fpcs=2, slots=2)
        placements = [
            scheduler.register_new_flow(Tcb(flow_id=flow_id)) for flow_id in range(6)
        ]
        assert placements[:4] == [Location.FPC] * 4
        assert placements[4:] == [Location.DRAM] * 2
        assert manager.flow_count == 2

    def test_location_tracking(self):
        scheduler, _, _ = make_system()
        scheduler.register_new_flow(Tcb(flow_id=9))
        assert scheduler.location_of(9) is Location.FPC
        assert scheduler.location_of(404) is None

    def test_deregister_from_fpc(self):
        scheduler, fpcs, _ = make_system()
        scheduler.register_new_flow(Tcb(flow_id=1))
        scheduler.deregister_flow(1)
        assert scheduler.location_of(1) is None
        assert all(f.peek_tcb(1) is None for f in fpcs)

    def test_deregister_from_dram(self):
        scheduler, _, manager = make_system(num_fpcs=1, slots=1)
        scheduler.register_new_flow(Tcb(flow_id=1))
        scheduler.register_new_flow(Tcb(flow_id=2))  # lands in DRAM
        scheduler.deregister_flow(2)
        assert 2 not in manager


class TestRouting:
    def test_events_reach_the_owning_fpc(self):
        scheduler, fpcs, _ = make_system(num_fpcs=2)
        scheduler.register_new_flow(Tcb(flow_id=0, state=TcpState.ESTABLISHED))
        assert scheduler.submit(user_send_event(0, 100, 0.0))
        spin(scheduler, fpcs, 10)
        owner = next(f for f in fpcs if f.peek_tcb(0) is not None)
        assert owner.events_accepted == 1

    def test_events_for_dram_flows_reach_memory_manager(self):
        scheduler, fpcs, manager = make_system(num_fpcs=1, slots=1)
        scheduler.register_new_flow(Tcb(flow_id=0))
        scheduler.register_new_flow(Tcb(flow_id=1))  # DRAM-resident
        scheduler.submit(user_send_event(1, 50, 0.0))
        spin(scheduler, fpcs, 10)
        manager.tick()
        assert manager.events_handled == 1

    def test_event_for_closed_flow_dropped(self):
        scheduler, fpcs, _ = make_system()
        assert scheduler.submit(user_send_event(404, 1, 0.0))
        spin(scheduler, fpcs, 5)  # no crash, event discarded


class TestCoalescing:
    def test_same_flow_events_coalesce_in_fifo(self):
        scheduler, fpcs, _ = make_system()
        scheduler.register_new_flow(Tcb(flow_id=0, state=TcpState.ESTABLISHED))
        for i in range(10):  # submitted back-to-back, no ticks between
            assert scheduler.submit(user_send_event(0, 100 * (i + 1), 0.0))
        assert scheduler.events_coalesced == 9
        spin(scheduler, fpcs, 20)
        owner = next(f for f in fpcs if f.peek_tcb(0) is not None)
        assert owner.events_accepted == 1  # a single merged event arrived
        assert owner.peek_tcb(0).req == 1000  # carrying the final pointer

    def test_coalescing_disabled(self):
        scheduler, fpcs, _ = make_system(coalescing=False)
        scheduler.register_new_flow(Tcb(flow_id=0)); submitted = 0
        for i in range(10):
            if scheduler.submit(user_send_event(0, 100 * (i + 1), 0.0)):
                submitted += 1
        assert scheduler.events_coalesced == 0
        assert submitted == 10  # FIFO depth 16 absorbs them individually

    def test_dupacks_do_not_coalesce(self):
        scheduler, _, _ = make_system()
        scheduler.register_new_flow(Tcb(flow_id=0))
        scheduler.submit(TcpEvent(EventKind.RX_PACKET, 0, ack=1, dup_incr=1, coalescible=False))
        scheduler.submit(TcpEvent(EventKind.RX_PACKET, 0, ack=1, dup_incr=1, coalescible=False))
        assert scheduler.events_coalesced == 0

    def test_backpressure_when_fifo_full_of_uncoalescible(self):
        scheduler, _, _ = make_system()
        scheduler.register_new_flow(Tcb(flow_id=0))
        results = [
            scheduler.submit(
                TcpEvent(EventKind.RX_PACKET, 0, dup_incr=1, coalescible=False)
            )
            for _ in range(20)
        ]
        assert results.count(True) == 16  # the coalesce FIFO depth
        assert not all(results)

    @pytest.mark.parametrize("coalescing", [False, True])
    def test_heat_counts_an_event_once_however_often_it_is_refused(self, coalescing):
        """FtEngine offers a backpressured event again every tick
        (``_drain_backlog``); the advisor must see it when it is taken
        in — pushed or coalesced — and not once per attempt."""
        scheduler, _, _ = make_system(coalescing=coalescing)
        heat = scheduler.flow_heat = FlowHeat(make_sketch("exact"))
        scheduler.register_new_flow(Tcb(flow_id=0))

        def dup_ack():
            return TcpEvent(EventKind.RX_PACKET, 0, dup_incr=1, coalescible=False)

        while scheduler.submit(dup_ack()):
            pass
        assert heat.records == scheduler.events_submitted == 16
        blocked = dup_ack()
        for _ in range(5):
            assert not scheduler.submit(blocked)
        assert heat.records == 16 and heat.estimate(0) == 16
        spin(scheduler, scheduler.fpcs, 2)  # two routed: room for two
        assert scheduler.submit(blocked)
        assert heat.records == scheduler.events_submitted == 17
        assert scheduler.submit(user_send_event(0, 1, 0.0))
        assert scheduler.submit(user_send_event(0, 2, 0.0)) is coalescing
        assert scheduler.events_coalesced == int(coalescing)
        assert heat.records == scheduler.events_submitted == 18 + coalescing


class TestMigration:
    def test_swap_in_on_sendable_dram_flow(self):
        """Fig 5/6: a DRAM flow that can send is swapped into an FPC."""
        scheduler, fpcs, manager = make_system(num_fpcs=2, slots=2)
        for flow_id in range(5):
            tcb = Tcb(flow_id=flow_id, state=TcpState.ESTABLISHED)
            scheduler.register_new_flow(tcb)
        assert scheduler.location_of(4) is Location.DRAM
        # A send request makes flow 4 sendable; check logic fires.
        scheduler.submit(user_send_event(4, 1000, 0.0))
        for _ in range(100):
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
            if scheduler.location_of(4) is Location.FPC:
                break
        assert scheduler.location_of(4) is Location.FPC
        assert scheduler.swap_ins == 1
        assert scheduler.evictions >= 1  # someone was evicted to make room

    def test_no_events_lost_during_migration(self):
        """Invariant 3: events routed while a TCB migrates are held in
        the pending queue and retried (§4.3.2)."""
        scheduler, fpcs, manager = make_system(num_fpcs=2, slots=2)
        for flow_id in range(5):
            scheduler.register_new_flow(
                Tcb(flow_id=flow_id, state=TcpState.ESTABLISHED)
            )
        # Fire events at ALL flows while migrations are in flight.
        pointers = {flow_id: 0 for flow_id in range(5)}
        for round_number in range(1, 30):
            for flow_id in range(5):
                pointer = round_number * 100 + flow_id
                if scheduler.submit(user_send_event(flow_id, pointer, 0.0)):
                    pointers[flow_id] = max(pointers[flow_id], pointer)
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
        for _ in range(300):
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
        # Every accepted event's information made it to the flow's TCB,
        # wherever it now lives.
        for flow_id, expected in pointers.items():
            location = scheduler.location_of(flow_id)
            if location is Location.FPC:
                tcb = next(
                    f.peek_tcb(flow_id)
                    for f in fpcs
                    if f.peek_tcb(flow_id) is not None
                )
                entry = None
            else:
                tcb, entry = manager._resident[flow_id]
            req = tcb.req
            if entry is not None and entry.valid:
                req = max(req, entry.req)
            assert req == expected, f"flow {flow_id}: {req} != {expected}"

    def test_pending_queue_retry_interval(self):
        assert PENDING_RETRY_CYCLES == 12  # §4.3.2

    def test_pending_queue_drains(self):
        scheduler, fpcs, manager = make_system(num_fpcs=2, slots=2)
        for flow_id in range(5):
            scheduler.register_new_flow(
                Tcb(flow_id=flow_id, state=TcpState.ESTABLISHED)
            )
        scheduler.submit(user_send_event(4, 500, 0.0))
        for _ in range(200):
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
        assert len(scheduler.pending) == 0
