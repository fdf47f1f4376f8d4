"""One clock per engine: a block's ``cycle`` is its engine's.

PR 23 replaced the four counters an engine kept (its own, the
scheduler's and the FPCs' tick counts, the memory manager's count of
stalled ticks) with the engine's one cycle, and re-captured every
golden that crosses an idle stretch or swaps a TCB in.  What must *not*
have moved is pinned here by something other than the numbers that
were replaced: the engine-layer trace of a run that never waits and
never spills, captured at the parent commit (where it took no idle jump
and ended with ``engine.cycle == scheduler.cycle == 8510``).
"""

from repro.apps.iperf import run_functional_bulk
from repro.engine.testbed import Testbed
from repro.obs import TraceBus, attach_testbed, fingerprint
from repro.traffic import get_scenario
from repro.traffic.engine import LoadEngine

#: ``run_functional_bulk(200_000)``, layers engine.{fpc,sched,tx,rx,mem},
#: 2003 events — captured at the parent of PR 23 (02bcb8a).
PARENT_BULK_FINGERPRINT = (
    "d0833baac8e7bd3e7c58e7a62fc4fefcedf43155a098231b4c90ba65f840f588"
)
ENGINE_LAYERS = ["engine.fpc", "engine.sched", "engine.tx", "engine.rx", "engine.mem"]


def _blocks(engine):
    return [engine.scheduler, engine.memory_manager, *engine.fpcs]


def test_a_run_that_never_waits_keeps_the_parents_trace():
    testbed = Testbed()
    bus = TraceBus(layers=ENGINE_LAYERS)
    attach_testbed(testbed, bus)
    run_functional_bulk(200_000, testbed=testbed)
    for engine in (testbed.engine_a, testbed.engine_b):
        assert engine.cycle == 8510
        assert engine.scheduler.swap_ins == engine.scheduler.evictions == 0
    assert len(bus.events) == 2003
    assert fingerprint(bus.events) == PARENT_BULK_FINGERPRINT


def test_every_block_reports_its_engines_cycle_after_idle_stretches():
    """``mixed`` crosses twenty idle stretches; at the parent they left
    the scheduler 26,078 cycles behind its engine (76,348 of 102,426)."""
    load_engine = LoadEngine(get_scenario("mixed", seed=1234))
    assert load_engine.run().finished
    testbed = load_engine.testbed
    assert testbed.cycle == 102_426
    for engine in (testbed.engine_a, testbed.engine_b):
        assert {block.cycle for block in _blocks(engine)} == {engine.cycle}
        assert engine.cycle == testbed.cycle
