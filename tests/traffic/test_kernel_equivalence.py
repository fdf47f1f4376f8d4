"""PR 5: the optimized pump/kernel is cycle-for-cycle identical.

The dirty-set pump (``LoadEngine._drain_host_messages``) skips conns
that are blocked on the engines.  These tests pin the obs trace-stream
sha256 fingerprints captured on the pre-PR-5 kernel (commit 8385b92,
seed 1234): every layer's every trace event — engine scheduling, memory
traffic, host queues, traffic lifecycle, occupancy samples — must be
byte-identical, which is as strong as cycle-level equivalence gets
without RTL.

If a future PR changes these hashes it changed simulated behaviour.
That can be legitimate (a modelling fix) but must be *deliberate*:
re-capture the constants in the same change and say why.

PR 23 (one clock per engine) is such a change, declared: a block's
``cycle`` is the engine's, so an FPC's even/odd phase and the
scheduler's pending retry no longer depend on which cycles the run loop
jumped, a TCB swapped into an idle FPC starts at once, a timer or a
declared pump cycle is met on the cycle it names, and scheduler trace
events carry the engine's time.  All goldens below were re-captured
then (CHANGES.md lists which moved and how); a run that never
waits and never spills kept its trace —
``tests/engine/test_one_clock.py`` pins one captured at the parent.

Integer picoseconds through the TCP core and the arrival schedule is
the next such change, declared.  ``mixed`` moved only in its
``complete`` events: an arrival instant is now its whole-ps ceil, the
instant the release was already made at, where the trace used to print
the float arrival rounded to nearest — 34 events 1 ps later, every
release, tick and count as before.  ``churn`` also moved 5 timeout
events one cycle earlier: a deadline ``now + rto`` is cycle-aligned
(the 10 ms RTO is 2.5 M cycles), and the float sum could land 1 ps
past it — 0.000975892 + 0.01 is 0.010975892000000001 — so the timer
fired a cycle late (cycles visited 2,314 -> 2,319).

Popping the host queues is the third, declared: ``LoadEngine`` used to
read each engine's message queues by cursor and never pop them, so the
``hostq`` occupancy sample counted every message since the start.  It
now pops what it reads, the queues hold only what was posted since the
last pump, and the sample reports that depth.  ``mixed`` and ``churn``
were re-captured then; with the host-queue ``sample`` events masked
out, both traces are byte-identical to their parents' (4,570 and 14,758
events, 50 and 3,422 of them such samples), and every other golden here
— ``GOLDEN_SPILL`` included — kept its value.
"""

import pytest
from hypothesis import settings

from repro.engine.testbed import Testbed
from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import Fixed, Scenario, TrafficClass, get_scenario
from repro.traffic.engine import LoadEngine

from ..engine._percycle_oracle import use_per_cycle

#: Re-captured when the host queues began to be popped (seed 1234); see
#: the docstring.
GOLDEN = {
    "mixed": "42b3fb260a768fad47f79997e4d365991e09ed7712c4440be2c55fee55d29824",
    "churn": "5ec663dd06b7f0414f087f9c95bc70637f293042b5fe87814fb0a8de3f9b3459",
}


def _large_transfers() -> Scenario:
    """Two closed-loop conns, 200 KB requests and 150 KB responses."""
    return Scenario(
        name="large",
        classes=[TrafficClass(
            name="large", request=Fixed(200_000), response=Fixed(150_000),
            rounds=2, connections=2,
        )],
        duration_s=1e-3,
        seed=1234,
    )


def _buffer_bound_transfers() -> Scenario:
    """One closed-loop conn whose 1.2 MB request and response outgrow
    the 512 KiB send buffers: both sides block on send room, and only
    an 'acked' message wakes them."""
    return Scenario(
        name="buffer-bound",
        classes=[TrafficClass(
            name="buffer-bound", request=Fixed(1_200_000),
            response=Fixed(1_200_000), rounds=1, connections=1,
        )],
        duration_s=1e-3,
        seed=1234,
    )


class SweepingLoadEngine(LoadEngine):
    """Advances every conn on every pump call, parked ones too: the
    pre-dirty-set behaviour.  It must be cycle-identical to
    :class:`LoadEngine` (equal trace fingerprints), and a parked conn's
    advance must change nothing (:func:`check_parking`)."""

    def _release_arrivals(self) -> None:
        super()._release_arrivals()
        self._mark_all_dirty()


def traced_fingerprint(scenario: str, sweep: bool = False, testbed=None) -> str:
    builders = {"large": _large_transfers, "buffer-bound": _buffer_bound_transfers}
    load_engine = (SweepingLoadEngine if sweep else LoadEngine)(
        builders[scenario]() if scenario in builders
        else get_scenario(scenario, seed=1234),
        testbed=testbed,
    )
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    load_engine.run()
    return fingerprint(bus.events)


def _conn_snapshot(conn) -> tuple:
    """Everything an advance can change of a conn."""
    return (
        conn.state,
        conn.send_remaining,
        conn.resp_remaining,
        conn.srv_send_remaining,
        len(conn.srv_expect),
        conn.srv_expect[0][1] if conn.srv_expect else -1,
        conn.current,
    )


def check_parking(monkeypatch) -> list:
    """The pump's parking rule, checked: on a :class:`SweepingLoadEngine`,
    every pump call advances every conn, and an advance of a conn the
    dirty-set pump would have skipped — parked by ``_may_act`` and not
    re-marked by a message, an accept or an arrival since — must change
    neither the conn nor an engine (no event submitted).  Returns a
    one-element list counting the parked advances checked."""
    parked = {}
    checked = [0]
    mark_all, advance = LoadEngine._mark_all_dirty, LoadEngine._advance_conn

    def recording_mark_all(load_engine):
        parked.clear()
        for state in load_engine.states.values():
            parked.update((id(c), c) for c in state.conns if not c.dirty)
        mark_all(load_engine)

    def submitted(load_engine):
        return [
            (engine.scheduler.events_submitted, len(engine._event_backlog))
            for engine in (load_engine.testbed.engine_a, load_engine.testbed.engine_b)
        ]

    def checked_advance(load_engine, state, conn):
        if parked.get(id(conn)) is not conn:
            return advance(load_engine, state, conn)
        before = _conn_snapshot(conn), submitted(load_engine)
        advance(load_engine, state, conn)
        assert (_conn_snapshot(conn), submitted(load_engine)) == before
        checked[0] += 1

    monkeypatch.setattr(LoadEngine, "_mark_all_dirty", recording_mark_all)
    monkeypatch.setattr(LoadEngine, "_advance_conn", checked_advance)
    return checked


class TestCycleExactEquivalence:
    def test_mixed_matches_pre_optimization_golden(self):
        assert traced_fingerprint("mixed") == GOLDEN["mixed"]

    def test_churn_matches_pre_optimization_golden(self):
        assert traced_fingerprint("churn") == GOLDEN["churn"]

    def test_sweep_mode_matches_golden_too(self, monkeypatch):
        """A :class:`SweepingLoadEngine` under the per-cycle oracle replays the
        pre-dirty-set exhaustive poll — every conn on every cycle; it
        must land on the same trace, proving the dirty-set skips only
        side-effect-free polls."""
        use_per_cycle(monkeypatch)
        checked = check_parking(monkeypatch)
        assert traced_fingerprint("mixed", sweep=True) == GOLDEN["mixed"]
        assert checked[0] > 0

    @pytest.mark.parametrize(
        "scenario", ["mixed", "churn", "lossy-mixed", "large", "buffer-bound"]
    )
    def test_a_parked_conn_cannot_act(self, scenario, monkeypatch):
        """Every pump call of the horizon loop, with every parked conn
        advanced anyway: not one of them moves, and the trace is the
        dirty-set pump's.  ``large`` sends requests and responses past
        the pump's 64 KiB chunk, so a conn is left with buffer room;
        ``buffer-bound`` past the send buffer, so a conn waits for an
        'acked' message on either side."""
        expected = GOLDEN.get(scenario) or traced_fingerprint(scenario)
        checked = check_parking(monkeypatch)
        assert traced_fingerprint(scenario, sweep=True) == expected
        assert checked[0] > 0

    def test_per_cycle_loop_matches_golden_too(self, monkeypatch):
        """The per-cycle oracle (every cycle visited, pumped and ticked)
        must land on the same trace, proving the horizon loop leaves
        out only provable no-ops."""
        use_per_cycle(monkeypatch)
        assert traced_fingerprint("mixed") == GOLDEN["mixed"]

    @pytest.mark.skipif(
        settings.default.max_examples
        != settings.get_profile("deep").max_examples,
        reason="7M per-cycle visits (~40 s): CI's deep pass runs it",
    )
    def test_per_cycle_loop_matches_churn_golden(self, monkeypatch):
        use_per_cycle(monkeypatch)
        assert traced_fingerprint("churn") == GOLDEN["churn"]

    def test_f4t_behind_backend_interface_matches_golden(self):
        """The engine pair built by the caller and handed in as
        ``testbed=`` (as ``bench/`` does) reproduces the pinned traces
        bit for bit: construction moved, not behaviour."""
        for name in ("mixed", "churn"):
            wire = get_scenario(name, seed=1234).build_wire()
            assert traced_fingerprint(name, testbed=Testbed(wire=wire)) == GOLDEN[name]


#: 64 round-robin flows on 2 x 8 TCB slots, re-captured at PR 23: every
#: round evicts and swaps in, so the trace also pins *when* a swapped-in
#: TCB is first processed — at once, also in an idle FPC (233 + 281
#: FPU passes; 232 + 280 under the start rule PR 23 retired, which left
#: such a TCB queued until that FPC's next event).
GOLDEN_SPILL = "54e24698068e16326ab9e0c9c6052a5d2a8f66e561532b8a59dd22fefc0e5fe4"
SPILL_PASSES = [233, 281]

#: 256 round-robin flows on 4 x 16 TCB slots, two rounds (``bench``'s
#: quick ``rr_spill``), captured at the parent of the change that made
#: the scheduler's blocked work sleep: the memory manager's full input
#: refuses routes (~400) and swap-ins find no victim (~500 waits), so
#: this trace pins both waits.  It sits out a 1 s SYN retransmission,
#: out of the per-cycle oracle's reach.
GOLDEN_RR_SPILL = "91d7cedc8ae50b61d13eafd81ac4b67578e8d6cce0a5594e3e5baecdfba31bdc"
RR_SPILL_PASSES = [1865, 1439]


def tick_scheduler(monkeypatch, always):
    """The scheduler ticked on every cycle (``always``), or on every
    cycle it has a FIFO head or a deferred swap-in queued — the retry
    rule before blocked work slept — whatever its ``next_action``
    says.  A tick with nothing to do is a no-op, so either must leave
    every trace as it is."""
    from repro.engine.scheduler import Scheduler

    tick = Scheduler.tick

    def retried(scheduler):
        tick(scheduler)
        if always or scheduler._deferred_swap_ins or any(
            fifo._items for fifo in scheduler.coalesce_fifos
        ):
            scheduler.next_action = scheduler.clock.cycle + 1

    monkeypatch.setattr(Scheduler, "tick", retried)


class TestSpillEquivalence:
    """The goldens above never leave SRAM; these live on migration."""

    @staticmethod
    def _run(sweep=False, flows=64, rounds=3, fpcs=2, slots=8):
        from repro.apps.roundrobin import round_robin_scenario
        from repro.engine.ftengine import FtEngineConfig
        from repro.engine.testbed import Testbed

        config = FtEngineConfig(num_fpcs=fpcs, fpc_slots=slots)
        load_engine = (SweepingLoadEngine if sweep else LoadEngine)(
            round_robin_scenario(flows, rounds, 128),
            testbed=Testbed(config_a=config, config_b=config),
        )
        bus = TraceBus()
        attach_load_engine(load_engine, bus)
        assert load_engine.run(setup_time_s=5.0, run_time_s=2.0).finished
        testbed = load_engine.testbed
        passes = [
            sum(fpc.tcbs_processed for fpc in engine.fpcs)
            for engine in (testbed.engine_a, testbed.engine_b)
        ]
        assert testbed.engine_a.scheduler.swap_ins > 100
        return fingerprint(bus.events), passes

    def _run_rr_spill(self):
        return self._run(flows=256, rounds=2, fpcs=4, slots=16)

    def test_horizon_loop_matches_spill_golden(self):
        assert self._run() == (GOLDEN_SPILL, SPILL_PASSES)

    def test_per_cycle_loop_matches_spill_golden(self, monkeypatch):
        use_per_cycle(monkeypatch)
        assert self._run() == (GOLDEN_SPILL, SPILL_PASSES)

    def test_scheduler_ticked_every_cycle_matches_spill_golden(self, monkeypatch):
        """Block-level per-cycle: a swap-in that waited for a victim
        replays, on its next tick, what the ticks it slept through did."""
        tick_scheduler(monkeypatch, always=True)
        assert self._run() == (GOLDEN_SPILL, SPILL_PASSES)

    def test_horizon_loop_matches_rr_spill_golden(self):
        assert self._run_rr_spill() == (GOLDEN_RR_SPILL, RR_SPILL_PASSES)

    def test_scheduler_retried_every_cycle_matches_rr_spill_golden(self, monkeypatch):
        tick_scheduler(monkeypatch, always=False)
        assert self._run_rr_spill() == (GOLDEN_RR_SPILL, RR_SPILL_PASSES)

    def test_a_parked_conn_cannot_act_while_flows_migrate(self, monkeypatch):
        checked = check_parking(monkeypatch)
        assert self._run(sweep=True) == (GOLDEN_SPILL, SPILL_PASSES)
        assert checked[0] > 0


class TestDirtySetBookkeeping:
    def test_conn_maps_emptied_when_scenario_completes(self):
        load_engine = LoadEngine(get_scenario("churn", seed=7))
        result = load_engine.run()
        assert result.completed
        assert load_engine._conn_of_a == {}
        assert load_engine._conn_of_b == {}

    def test_host_queues_are_popped(self):
        """The pump pops what it reads: after the run no message is
        left on either engine's queue."""
        load_engine = LoadEngine(get_scenario("churn", seed=7))
        load_engine.run()
        testbed = load_engine.testbed
        for engine in (testbed.engine_a, testbed.engine_b):
            assert engine.counters.get("flows_created") > 0
            assert not engine.host_messages
