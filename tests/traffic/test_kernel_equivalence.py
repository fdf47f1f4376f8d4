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
"""

from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.traffic import get_scenario
from repro.traffic.engine import LoadEngine

#: Captured on the pre-PR-5 kernel (float time, exhaustive pump).
GOLDEN = {
    "mixed": "c900a42f80a90bb6c3fa31397baf484f0c72816e3217f9d7f5176cf3cc5aeaea",
    "churn": "13abc7dc59d9267cf77599abfcc431370e6ce0d3a740a6bccc2f9eaca4563303",
}


def traced_fingerprint(
    scenario: str,
    sweep: bool = False,
    backend: str = "f4t",
    batched: bool = True,
) -> str:
    load_engine = LoadEngine(get_scenario(scenario, seed=1234), backend=backend)
    load_engine.sweep_all_pumps = sweep
    load_engine.batched = batched
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

    def test_per_cycle_loop_matches_golden_too(self):
        """``batched = False`` is the per-cycle testbed loop the batched
        one (quiet-cycle skips + ``advance_cycles``) is checked against;
        it must land on the same trace, proving the batching collapses
        only provable no-ops."""
        assert traced_fingerprint("mixed", batched=False) == GOLDEN["mixed"]

    def test_f4t_behind_backend_interface_matches_golden(self):
        """PR 6 put the engine behind ``repro.fabric``'s OffloadBackend
        registry; selecting it explicitly (and via its legacy alias)
        must reproduce the pinned trace bit for bit — the refactor moved
        construction, not behaviour."""
        assert traced_fingerprint("mixed", backend="f4t") == GOLDEN["mixed"]
        assert traced_fingerprint("churn", backend="functional") == GOLDEN["churn"]


#: 64 round-robin flows on 2 x 8 TCB slots, captured on the PR 17 tree:
#: every round evicts and swaps in, so the trace also pins *when* a
#: swapped-in TCB is first processed (``FlowProcessingCore.accept_tcb``'s
#: start rule; 232 + 280 FPU passes — 233 + 281 if a swap-in into an
#: idle FPC were dispatched at once).  ROADMAP item 4 asks whether that
#: rule is the model we want; change it deliberately, not by optimising.
GOLDEN_SPILL = "de270e20445c6bd808e3d8287e21cd8cac8c25544cb00207a4e7200f262a18d2"


class TestSpillEquivalence:
    """The goldens above never leave SRAM; this one lives on migration."""

    @staticmethod
    def _run(batched):
        from repro.apps.roundrobin import round_robin_scenario
        from repro.engine.ftengine import FtEngineConfig
        from repro.engine.testbed import Testbed

        config = FtEngineConfig(num_fpcs=2, fpc_slots=8)
        load_engine = LoadEngine(
            round_robin_scenario(64, 3, 128),
            testbed=Testbed(config_a=config, config_b=config),
        )
        load_engine.batched = batched
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
        assert self._run(batched=True) == (GOLDEN_SPILL, [232, 280])

    def test_per_cycle_loop_matches_spill_golden(self):
        assert self._run(batched=False) == (GOLDEN_SPILL, [232, 280])


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
