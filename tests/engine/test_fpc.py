"""The Flow Processing Core: rates, hazards, eviction (§4.2, §4.3.2)."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.baseline import NullFpu
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.sim.component import NEVER
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb

from .._records import make_tcb


def make_fpc(slots=8, latency=14):
    return FlowProcessingCore(0, slots=slots, fpu=NullFpu(latency))


def install_flows(fpc, count):
    for flow_id in range(count):
        fpc.accept_tcb(make_tcb(flow_id=flow_id, state=TcpState.ESTABLISHED))


class TestResidency:
    def test_accept_and_peek(self):
        fpc = make_fpc()
        fpc.accept_tcb(Tcb(flow_id=42))
        assert fpc.flow_count == 1
        assert fpc.peek_tcb(42) is not None
        assert fpc.peek_tcb(99) is None

    def test_has_room(self):
        fpc = make_fpc(slots=2)
        install_flows(fpc, 2)
        assert fpc.flow_count == fpc.slots
        with pytest.raises(OverflowError):
            fpc.accept_tcb(Tcb(flow_id=99))

    def test_resident_flows(self):
        fpc = make_fpc()
        install_flows(fpc, 3)
        assert sorted(fpc.resident_flows()) == [0, 1, 2]

    def test_coldest_flow(self):
        fpc = make_fpc()
        for flow_id, when in ((1, 5000), (2, 1000), (3, 9000)):
            tcb = Tcb(flow_id=flow_id, last_active=when)
            fpc.accept_tcb(tcb)
        assert fpc.coldest_flow() == 2


class TestEventProcessingRate:
    def test_one_event_per_two_cycles(self):
        """§4.2.3: 125 M events/s at 250 MHz — one event per 2 cycles."""
        fpc = make_fpc()
        install_flows(fpc, 4)
        offered = 0
        for cycle in range(1000):
            if fpc.offer_event(user_send_event(offered % 4, offered + 1, 0)):
                offered += 1
            fpc.tick()
            fpc.drain_results()
        assert fpc.events_accepted == pytest.approx(500, abs=5)

    def test_rate_independent_of_fpu_latency(self):
        """§4.5: the versatility claim at FPC granularity."""
        rates = []
        for latency in (1, 14, 68):
            fpc = make_fpc(latency=latency)
            install_flows(fpc, 1)
            for i in range(2000):
                fpc.offer_event(user_send_event(0, i + 1, 0))
                fpc.tick()
                fpc.drain_results()
            rates.append(fpc.events_accepted)
        assert max(rates) - min(rates) <= 2

    def test_single_flow_events_accumulate_while_fpu_busy(self):
        fpc = make_fpc(latency=40)
        install_flows(fpc, 1)
        for i in range(200):
            fpc.offer_event(user_send_event(0, i + 1, 0))
            fpc.tick()
            fpc.drain_results()
        # Events kept flowing in at ~1/2 cycles even though the FPU
        # completed far fewer passes.
        assert fpc.events_accepted >= 95
        assert fpc.tcbs_processed < fpc.events_accepted


class TestHazardFreedom:
    def test_same_flow_never_in_fpu_twice(self):
        """§4.2.2: the round-robin distance prevents RMW hazards."""
        fpc = make_fpc(latency=20)
        install_flows(fpc, 2)
        max_inflight_same_flow = 0
        for i in range(500):
            fpc.offer_event(user_send_event(i % 2, i + 1, 0))
            fpc.tick()
            fpc.drain_results()
            # Pipe entries are (retire_cycle, slot, tcb, dup).
            in_pipe = [tcb.flow_id for _, _, tcb, _ in fpc.pipe]
            for flow_id in set(in_pipe):
                max_inflight_same_flow = max(
                    max_inflight_same_flow, in_pipe.count(flow_id)
                )
        assert max_inflight_same_flow <= 1

    def test_writeback_keeps_latest_events(self):
        """Events arriving during an FPU pass must survive it
        (dual-memory invariant 2)."""
        fpc = make_fpc(latency=30)
        install_flows(fpc, 1)
        fpc.offer_event(user_send_event(0, 100, 0))
        # Let it dispatch, then inject another event mid-pipeline.
        for _ in range(6):
            fpc.tick()
        fpc.offer_event(user_send_event(0, 999, 0))
        for _ in range(80):
            fpc.tick()
            fpc.drain_results()
        tcb = fpc.peek_tcb(0)
        entry = fpc._entries[fpc._slot_of[0]]
        # Either already merged into the TCB or still valid in the table.
        assert tcb.req == 999 or (entry.valid and entry.req == 999)


class TestEviction:
    def test_evict_requested_flow_comes_out_processed(self):
        fpc = make_fpc()
        install_flows(fpc, 3)
        assert fpc.request_evict(1)
        evicted = []
        for _ in range(60):
            fpc.tick()
            fpc.drain_results()
            evicted.extend(fpc.drain_evicted())
        assert [tcb.flow_id for tcb in evicted] == [1]
        assert fpc.peek_tcb(1) is None
        assert fpc.flow_count == 2

    def test_evict_unknown_flow_refused(self):
        fpc = make_fpc()
        assert not fpc.request_evict(123)

    def test_eviction_waits_for_queued_events(self):
        """Invariant 3: a TCB is never evicted with unprocessed events."""
        fpc = make_fpc(latency=4)
        install_flows(fpc, 1)
        # Queue several events, then immediately request eviction.
        for i in range(5):
            fpc.offer_event(user_send_event(0, 100 + i, 0))
        fpc.request_evict(0)
        evicted = []
        for _ in range(200):
            fpc.tick()
            fpc.drain_results()
            evicted.extend(fpc.drain_evicted())
        assert len(evicted) == 1
        # The evicted TCB carries the newest request pointer: every
        # queued event was handled and processed before eviction.
        assert evicted[0].req == 104
        assert len(fpc.input) == 0

    def test_evict_request_survives_in_flight_pass(self):
        """The evict checker reads the request register, not the TCB
        image: a request racing an in-flight FPU pass must not be lost
        when the stale pipeline copy is written back."""
        fpc = make_fpc(latency=14)
        install_flows(fpc, 1)
        fpc.offer_event(user_send_event(0, 100, 0))
        # Tick until the TCB is inside the pipeline, then request evict:
        # the flag lands on the table image while a pre-request clone is
        # in flight.
        for _ in range(40):
            fpc.tick()
            if 0 in fpc._in_flight:
                break
        assert 0 in fpc._in_flight
        assert fpc.request_evict(0)
        evicted = []
        for _ in range(200):
            fpc.tick()
            fpc.drain_results()
            evicted.extend(fpc.drain_evicted())
        assert [tcb.flow_id for tcb in evicted] == [0]
        assert 0 not in fpc._evict_requested

    def test_evicted_slot_is_reusable(self):
        fpc = make_fpc(slots=1)
        install_flows(fpc, 1)
        fpc.request_evict(0)
        for _ in range(60):
            fpc.tick()
            fpc.drain_results()
            fpc.drain_evicted()
        assert fpc.flow_count < fpc.slots
        fpc.accept_tcb(Tcb(flow_id=77))
        assert fpc.peek_tcb(77) is not None


class TestBackpressure:
    def test_input_fifo_backpressure_signal(self):
        fpc = make_fpc(slots=4)
        install_flows(fpc, 1)
        while fpc.offer_event(user_send_event(0, 1, 0)):
            pass
        assert len(fpc.input) == fpc.depth
        assert fpc.backpressure
        assert not fpc.offer_event(user_send_event(0, 1, 0))

    def test_a_refusal_past_the_depth_keeps_the_contents(self, monkeypatch):
        monkeypatch.setattr(FlowProcessingCore, "depth", 2)
        fpc = make_fpc()
        install_flows(fpc, 1)
        assert fpc.offer_event(user_send_event(0, 1, 0))
        assert not fpc.backpressure  # past half the depth, not at it
        assert fpc.offer_event(user_send_event(0, 2, 0))
        assert fpc.backpressure
        assert not fpc.offer_event(user_send_event(0, 3, 0))
        assert [event.req for event in fpc.input] == [1, 2]


class TestFpuPipe:
    """The FPU pipe the FPC keeps (§4.2.2, §4.5): a TCB retires a fixed
    latency after it issues, issues are an initiation interval apart,
    and passes retire in issue order."""

    @staticmethod
    def _run(fpc, flows, cycles):
        """Offer one event per flow up front, tick ``cycles`` times;
        returns the (cycle, flow) of every issue and every retire."""
        install_flows(fpc, flows)
        for flow_id in range(flows):
            fpc.offer_event(user_send_event(flow_id, 1, 0))
        issued, retired = [], []
        for _ in range(cycles):
            fpc.tick()
            pipe = fpc.pipe
            if pipe and pipe[-1][0] == fpc.cycle + fpc._latency:
                issued.append((fpc.cycle, pipe[-1][2].flow_id))
            retired.extend(
                (fpc.cycle, result.tcb.flow_id) for result in fpc.drain_results()
            )
        return issued, retired

    def test_result_appears_after_latency(self):
        issued, retired = self._run(make_fpc(latency=5), 1, 20)
        [(issue, flow)] = issued
        assert retired == [(issue + 5, flow)]

    def test_initiation_interval_blocks_early_reissue(self):
        fpc = make_fpc(latency=5)
        fpc.initiation_interval = 3
        issued, _ = self._run(fpc, 4, 60)
        assert len(issued) == 4
        times = [cycle for cycle, _ in issued]
        assert all(b - a >= 3 for a, b in zip(times, times[1:]))

    def test_pipelined_overlap(self):
        """TCBs issued every II retire every II after the fill latency —
        the property that lets the FPU run at full rate regardless of
        depth (§4.5)."""
        issued, retired = self._run(make_fpc(latency=14), 8, 60)
        times = [cycle for cycle, _ in retired]
        assert times[0] == issued[0][0] + 14
        assert all(b - a == 2 for a, b in zip(times, times[1:]))

    def test_retire_order_is_issue_order(self):
        issued, retired = self._run(make_fpc(latency=3), 5, 40)
        assert [flow for _, flow in retired] == [flow for _, flow in issued]
        assert len(retired) == 5

    def test_busy_and_len(self):
        fpc = make_fpc(latency=4)
        assert len(fpc.pipe) == 0
        self._run(fpc, 1, 3)  # handled on cycle 2, issued on cycle 3
        assert len(fpc.pipe) == 1
        for _ in range(4):
            fpc.tick()
        assert len(fpc.pipe) == 0

    def test_counters(self):
        fpc = make_fpc(latency=1)
        self._run(fpc, 3, 20)
        assert fpc.tcbs_processed == 3

    def test_next_retire_cycle(self):
        """The head's retire cycle is the pipe's term of the horizon."""
        fpc = make_fpc(latency=12)
        assert fpc._retire_at == NEVER
        issued, _ = self._run(fpc, 2, 5)
        assert [cycle for cycle, _ in issued] == [3, 5]
        assert fpc._retire_at == 15 and fpc.next_action == 15
        self._run(fpc, 0, 9)
        assert fpc._retire_at == 15 and fpc.tcbs_processed == 0
        fpc.tick()
        assert fpc.tcbs_processed == 1 and fpc._retire_at == 17

# ------------------------------------------------------ the work horizon
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["event", "event", "event", "evict", "accept", "idle", "idle"]),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def owned_fpc(slots=4, latency=14):
    """An FPC on an owner's clock — anything with a ``cycle``, which the
    owner alone advances — as FtEngine builds its own."""
    clock = SimpleNamespace(cycle=0)
    fpc = FlowProcessingCore(0, slots=slots, fpu=NullFpu(latency), clock=clock)
    return fpc, clock


def _full_tick(fpc):
    """The tick body with no guard and no horizon: every stage runs on
    every cycle (what ``tick`` was before it learnt to look ahead)."""
    fpc._retire()
    if fpc.cycle % 2 == 0:
        fpc._handle_one_event()
    else:
        fpc._dispatch_one()
    return True


def _every_cycle(fpc):
    fpc.tick()
    return True


def _horizon_gated(fpc):
    """Tick only when the horizon is due, as FtEngine does."""
    if fpc.next_action <= fpc.cycle:
        fpc.tick()
        return True
    return False


def _state(fpc):
    """Everything a tick can change."""
    slots = []
    for flow_id in sorted(fpc.resident_flows()):
        slot = fpc._slot_of[flow_id]
        tcb = fpc._tcbs[slot]
        entry = fpc._entries[slot]
        slots.append((flow_id, slot, tcb.req, tcb.evict_flag, entry.valid, entry.req))
    return (
        [event.req for event in fpc.input],
        list(fpc._dispatch_queue),
        sorted(fpc._in_flight),
        [(retire, slot, tcb.flow_id) for retire, slot, tcb, _ in fpc.pipe],
        [result.tcb.flow_id for result in fpc.out_results],
        [tcb.flow_id for tcb in fpc.out_evicted],
        fpc.events_accepted,
        fpc.tcbs_processed,
        slots,
    )


def _apply(fpc, op, flow_id, pending, sequence, parked, fresh):
    """One scheduler-side call into the FPC (its entry points)."""
    if op == "event":
        fpc.offer_event(user_send_event(flow_id % 3, sequence, 0))
    elif op == "evict":
        fpc.request_evict(flow_id % 3)
    elif op == "accept" and fpc.flow_count < fpc.slots:
        tcb = parked.pop(0) if parked else make_tcb(
            flow_id=100 + next(fresh), state=TcpState.ESTABLISHED
        )
        # A swap-in may arrive with work pending (§4.3.1's check logic
        # is why it is swapped in at all) or without.
        tcb.ack_pending = pending
        fpc.accept_tcb(tcb)


def _drive(ops, latency, interval, step):
    """Replay one schedule the way FtEngine runs a cycle: the owner's
    clock moves, the scheduler's turn calls into the FPC, then the FPC
    has its turn.  Returns per-cycle states and the gate's record."""
    fpc, clock = owned_fpc(latency=latency)
    # The FPU's own interval (2) coincides with the odd-cycle dispatch
    # phase; a longer one makes the interval bind on its own.
    fpc.initiation_interval = interval
    install_flows(fpc, 3)
    parked = []  # evicted TCBs, to be swapped back in
    fresh = itertools.count()
    history, wasted = [], 0
    for op, flow_id, pending in ops:
        clock.cycle += 1
        _apply(fpc, op, flow_id, pending, len(history) + 1, parked, fresh)
        before = _state(fpc)
        ticked = step(fpc)
        if ticked and step is _horizon_gated and _state(fpc) == before:
            wasted += 1
        history.append(_state(fpc))
        # The owner drains outputs every cycle, as FtEngine does.
        fpc.drain_results()
        parked.extend(fpc.drain_evicted())
    return history, wasted


class TestWorkHorizon:
    """``next_action`` is exact: an owner that ticks only when it is due
    sees what an owner ticking every cycle sees — and never ticks for
    nothing, which is what makes the engine loop work-proportional.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        ops=_OPS,
        latency=st.sampled_from([1, 2, 3, 14, 15]),
        interval=st.sampled_from([2, 2, 5]),
    )
    def test_gated_ticks_match_every_cycle_ticks(self, ops, latency, interval):
        reference, _ = _drive(ops, latency, interval, _full_tick)
        every_cycle, _ = _drive(ops, latency, interval, _every_cycle)
        gated, wasted = _drive(ops, latency, interval, _horizon_gated)
        assert every_cycle == reference
        assert gated == reference
        # Exact, not merely safe: a due tick always does something.  (A
        # horizon without the even/odd phase, the initiation interval or
        # the in-flight distance wakes the FPC early and fails here; one
        # that oversleeps fails the comparison above.)
        assert wasted == 0

    def test_idle_fpc_has_no_horizon(self):
        fpc = make_fpc()
        install_flows(fpc, 2)
        assert fpc.next_action == NEVER

    def test_event_is_handled_on_the_next_even_cycle(self):
        fpc, clock = owned_fpc()
        install_flows(fpc, 1)
        clock.cycle = 1
        fpc.offer_event(user_send_event(0, 1, 0))
        assert fpc.next_action == 2  # the owner skips this odd cycle
        clock.cycle = 2
        fpc.tick()
        assert fpc.events_accepted == 1
        # Handled at 2, so the TCB manager issues on the next odd cycle.
        assert fpc.next_action == 3

    def test_in_flight_flow_waits_for_its_retire(self):
        fpc = make_fpc(latency=14)
        install_flows(fpc, 1)
        fpc.offer_event(user_send_event(0, 1, 0))
        for _ in range(3):
            fpc.tick()
        assert 0 in fpc._in_flight  # issued on cycle 3
        fpc.offer_event(user_send_event(0, 2, 0))
        fpc.tick()  # cycle 4 handles it; flow 0 re-queued but in flight
        assert list(fpc._dispatch_queue) == [0]
        assert fpc.next_action == 3 + 14

    def test_a_swap_in_with_work_pending_starts_an_idle_fpc(self):
        """The check logic swaps a flow in because it can send: the TCB
        manager issues it on the next odd cycle, idle FPC or not."""
        fpc, clock = owned_fpc()
        clock.cycle = 40  # long idle
        fpc.accept_tcb(make_tcb(flow_id=7, state=TcpState.ESTABLISHED, ack_pending=True))
        assert fpc.next_action == 41
        fpc.accept_tcb(make_tcb(flow_id=8, state=TcpState.ESTABLISHED))
        assert list(fpc._dispatch_queue) == [7]  # nothing pending: not queued

    def test_undrained_outputs_are_due_at_once(self):
        """An evicted TCB waits on ``out_evicted`` for the scheduler: the
        retire that queues it wakes the scheduler there and then."""
        fpc = make_fpc(latency=1)
        install_flows(fpc, 1)
        woken = []
        fpc.notify_scheduler = lambda: woken.append(fpc.cycle)
        assert fpc.request_evict(0)
        while not fpc.out_evicted:
            fpc.tick()
        assert woken == [fpc.cycle]
        assert fpc.next_action == NEVER


# ------------------------------------------------------ whose clock it is
def _engine(num_fpcs=3):
    from repro.engine.ftengine import FtEngine, FtEngineConfig

    return FtEngine(ip=0x0A000001, config=FtEngineConfig(num_fpcs=num_fpcs, fpc_slots=4))


def _blocks(engine):
    return [engine.scheduler, engine.memory_manager, *engine.fpcs]


def _counters(engine):
    return (
        engine.cycle, [block.cycle for block in _blocks(engine)],
        [block.next_action for block in _blocks(engine)],
    )


class TestSharedTickCounter:
    """A stand-alone FPC is its own clock and counts its own ticks
    (``analysis/microbench.py`` and ``mem/sweep.py`` drive it so); the
    blocks of an engine read the engine's cycle and never count.  Same
    FPC either way."""

    def test_a_stand_alone_fpc_owns_its_counter(self):
        a, b = make_fpc(), make_fpc()
        a.tick()
        assert (a.cycle, b.cycle) == (1, 0)
        assert a.clock is a and "cycle" in vars(a)

    def test_engine_fpcs_share_the_engines(self):
        engine = _engine()
        assert all(block.clock is engine for block in _blocks(engine))
        # No block keeps a cycle of its own to fall out of step.
        assert not any("cycle" in vars(block) for block in _blocks(engine))
        engine.tick()
        engine.advance_cycles(9)
        assert [block.cycle for block in _blocks(engine)] == [10] * 5

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS, latency=st.sampled_from([1, 3, 14]), skip=st.booleans())
    def test_stand_alone_and_engine_owned_agree(self, ops, latency, skip):
        """One schedule, the FPC once counting its own ticks and once on
        a clock its owner advances before each cycle (ticking it only
        when its horizon is due, if ``skip``)."""

        def drive(owned):
            if owned:
                fpc, clock = owned_fpc(latency=latency)
            else:
                fpc = clock = make_fpc(slots=4, latency=latency)
            install_flows(fpc, 3)
            parked, fresh, history = [], itertools.count(), []
            for op, flow_id, pending in ops:
                if owned:
                    clock.cycle += 1
                _apply(fpc, op, flow_id, pending, len(history) + 1, parked, fresh)
                if not (owned and skip) or fpc.next_action <= clock.cycle:
                    fpc.tick()
                history.append((fpc.cycle, _state(fpc)))
                fpc.drain_results()
                parked.extend(fpc.drain_evicted())
            return history

        assert drive(owned=True) == drive(owned=False)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), stalled=st.booleans())
    def test_advance_cycles_equals_that_many_no_op_ticks(self, n, stalled):
        """Short of every horizon — the memory manager's wait for the
        DRAM channel included — a tick changes nothing but the cycle."""
        from repro.engine.events import EventKind, TcpEvent
        from repro.tcp.tcb import Tcb

        def quiet_engine():
            engine = _engine()
            engine.tick()
            if stalled:
                manager = engine.memory_manager
                manager.store(Tcb(flow_id=900))
                manager.dram.busy_until_ps = (engine.cycle + n + 1) * 4000.0
                manager.offer_event(TcpEvent(EventKind.RX_PACKET, 900, wnd=1))
                assert manager.next_action == engine.cycle + n + 1
            assert (engine.next_work_cycle() or NEVER) > engine.cycle + n
            return engine

        ticked, advanced = quiet_engine(), quiet_engine()
        for _ in range(n):
            ticked.tick()
        advanced.advance_cycles(n)
        assert _counters(advanced) == _counters(ticked)
        assert ticked.stats_report() == advanced.stats_report()
        assert ticked.memory_manager.events_handled == 0
