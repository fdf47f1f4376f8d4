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
then (EXPERIMENTS.md has the before/after table); a run that never
waits and never spills kept its trace —
``tests/engine/test_one_clock.py`` pins one captured at the parent.
"""

import pytest
from hypothesis import settings

from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import get_scenario
from repro.traffic.engine import LoadEngine

from ..engine._percycle_oracle import use_per_cycle

#: Re-captured at PR 23 (seed 1234); before that, the pre-PR-5 kernel's.
GOLDEN = {
    "mixed": "4645a742d2ec9f2e275b17db0130ecc960e260db64b2946c43127f61f828d487",
    "churn": "eaad53fb54053c62301f46277bd0c3f4d87f0ee384e351cb2c78675c774b17b1",
}


def traced_fingerprint(
    scenario: str, sweep: bool = False, backend: str = "f4t"
) -> str:
    load_engine = LoadEngine(get_scenario(scenario, seed=1234), backend=backend)
    load_engine.sweep_all_pumps = sweep
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    load_engine.run()
    return fingerprint(bus.events)


class TestCycleExactEquivalence:
    def test_mixed_matches_pre_optimization_golden(self):
        assert traced_fingerprint("mixed") == GOLDEN["mixed"]

    def test_churn_matches_pre_optimization_golden(self):
        assert traced_fingerprint("churn") == GOLDEN["churn"]

    def test_sweep_mode_matches_golden_too(self):
        """``sweep_all_pumps`` replays the pre-dirty-set exhaustive poll;
        it must land on the same trace, proving the dirty-set skips only
        side-effect-free polls."""
        assert traced_fingerprint("mixed", sweep=True) == GOLDEN["mixed"]

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
        """PR 6 put the engine behind ``repro.fabric``'s OffloadBackend
        registry; selecting it explicitly (and via its legacy alias)
        must reproduce the pinned trace bit for bit — the refactor moved
        construction, not behaviour."""
        assert traced_fingerprint("mixed", backend="f4t") == GOLDEN["mixed"]
        assert traced_fingerprint("churn", backend="functional") == GOLDEN["churn"]


#: 64 round-robin flows on 2 x 8 TCB slots, re-captured at PR 23: every
#: round evicts and swaps in, so the trace also pins *when* a swapped-in
#: TCB is first processed — at once, also in an idle FPC (233 + 281
#: FPU passes; 232 + 280 under the start rule PR 23 retired, which left
#: such a TCB queued until that FPC's next event).
GOLDEN_SPILL = "54e24698068e16326ab9e0c9c6052a5d2a8f66e561532b8a59dd22fefc0e5fe4"
SPILL_PASSES = [233, 281]


class TestSpillEquivalence:
    """The goldens above never leave SRAM; this one lives on migration."""

    @staticmethod
    def _run():
        from repro.apps.roundrobin import round_robin_scenario
        from repro.engine.ftengine import FtEngineConfig
        from repro.engine.testbed import Testbed

        config = FtEngineConfig(num_fpcs=2, fpc_slots=8)
        load_engine = LoadEngine(
            round_robin_scenario(64, 3, 128),
            testbed=Testbed(config_a=config, config_b=config),
        )
        bus = TraceBus()
        attach_load_engine(load_engine, bus)
        assert load_engine.run(setup_time_s=5.0).finished
        testbed = load_engine.testbed
        passes = [
            sum(fpc.tcbs_processed for fpc in engine.fpcs)
            for engine in (testbed.engine_a, testbed.engine_b)
        ]
        assert testbed.engine_a.scheduler.swap_ins > 100
        return fingerprint(bus.events), passes

    def test_horizon_loop_matches_spill_golden(self):
        assert self._run() == (GOLDEN_SPILL, SPILL_PASSES)

    def test_per_cycle_loop_matches_spill_golden(self, monkeypatch):
        use_per_cycle(monkeypatch)
        assert self._run() == (GOLDEN_SPILL, SPILL_PASSES)


class TestDirtySetBookkeeping:
    def test_conn_maps_emptied_when_scenario_completes(self):
        load_engine = LoadEngine(get_scenario("churn", seed=7))
        result = load_engine.run()
        assert result.completed
        assert load_engine._conn_of_a == {}
        assert load_engine._conn_of_b == {}

    def test_message_cursors_track_queue_tails(self):
        load_engine = LoadEngine(get_scenario("churn", seed=7))
        load_engine.run()
        testbed = load_engine.testbed
        for side, engine in enumerate((testbed.engine_a, testbed.engine_b)):
            for thread_id, queue in engine.host_messages.items():
                cursor = load_engine._msg_cursors.get((side, thread_id), 0)
                assert cursor == len(queue)
