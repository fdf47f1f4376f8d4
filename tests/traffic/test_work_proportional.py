"""The engine loop costs what is due, not what exists.

``Testbed.run`` ticks an engine only on a cycle its own
``next_work_cycle`` names and calls the pump only when its
``quiet_cycle`` or an engine message says so.  These tests read what the
loop did from ``Testbed.loop_stats`` and hold it against the per-cycle
oracle (``tests/engine/_percycle_oracle.py``): same simulated cycles,
every one accounted for, a fraction of the ticks.
"""

import pytest

from repro.engine.ftengine import FtEngine
from repro.engine.testbed import Testbed
from repro.traffic import get_scenario
from repro.traffic.engine import LoadEngine

from ..engine._percycle_oracle import run_per_cycle


def _per_cycle(load_engine):
    """Run this load engine's testbed by the per-cycle oracle, counting
    the pump calls it makes."""
    testbed = load_engine.testbed
    testbed.until_calls = 0

    def run(until, **kwargs):
        def counted():
            testbed.until_calls += 1
            return until()

        return run_per_cycle(testbed, until=counted, **kwargs)

    testbed.run = run


def _run(scenario, per_cycle=False):
    load_engine = LoadEngine(get_scenario(scenario, seed=1234))
    if per_cycle:
        _per_cycle(load_engine)
    result = load_engine.run()
    assert result.finished and result.completed == result.offered
    return load_engine, result


@pytest.mark.parametrize("scenario", ["mixed", "lossy-mixed"])
def test_every_horizon_tick_was_due(scenario, monkeypatch):
    """No engine is ticked because its peer, or the clock, moved."""
    undue = []
    tick = FtEngine.tick

    def checked_tick(engine):
        if engine.next_work_cycle() != engine.cycle + 1:
            undue.append((engine.name, engine.cycle))
        tick(engine)

    monkeypatch.setattr(FtEngine, "tick", checked_tick)
    load_engine, _ = _run(scenario)
    assert load_engine.testbed.loop_stats["ticks_a"] > 0
    assert undue == []


@pytest.mark.parametrize("scenario", ["mixed", "lossy-mixed"])
def test_ticks_follow_events_and_every_cycle_is_accounted_for(scenario):
    horizon, horizon_result = _run(scenario)
    reference, reference_result = _run(scenario, per_cycle=True)
    assert horizon_result.elapsed_s == reference_result.elapsed_s
    assert horizon.testbed.cycle == reference.testbed.cycle

    # Landed on or skipped, the horizon loop moved through exactly the
    # cycles the oracle visits, on which it ticks both engines; and
    # every block reports the cycle its engine is on.
    stats, cycles = horizon.testbed.loop_stats, reference.testbed.cycle
    assert stats["cycles_visited"] + stats["cycles_advanced"] == cycles
    for a, b in zip(
        (horizon.testbed.engine_a, horizon.testbed.engine_b),
        (reference.testbed.engine_a, reference.testbed.engine_b),
    ):
        assert a.stats_report() == b.stats_report()
        blocks = [a.scheduler, a.memory_manager, *a.fpcs]
        assert {block.cycle for block in blocks} == {a.cycle} == {b.cycle}

    # Work-proportional: a routed event costs a handful of engine ticks
    # (its scheduler pass, its handle, its dispatch, its retire), where
    # the per-cycle loop pays for every cycle on both engines.
    routed = sum(
        engine.scheduler.events_routed
        for engine in (horizon.testbed.engine_a, horizon.testbed.engine_b)
    )
    ticks = stats["ticks_a"] + stats["ticks_b"]
    assert ticks / routed <= 4
    assert 2 * cycles / routed > 4 * ticks / routed
    # ...and the pump runs when a message or its own schedule says so.
    assert stats["until_calls"] < ticks
    assert stats["until_calls"] < reference.testbed.until_calls / 4


# ---------------------------------------------------------- the spill shape
def _run_spill():
    """256 flows on 64 TCB slots per engine: every round evicts and swaps
    in, so the scheduler's migration protocol, the memory manager and
    the DRAM channel are on the blocking path (``bench``'s rr_spill)."""
    from repro.apps.roundrobin import round_robin_scenario
    from repro.engine.ftengine import FtEngineConfig

    config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
    load_engine = LoadEngine(
        round_robin_scenario(256, 2, 128),
        testbed=Testbed(config_a=config, config_b=config),
    )
    result = load_engine.run(setup_time_s=5.0, run_time_s=2.0)
    assert result.finished and result.completed == result.offered
    return load_engine, result


def _scheduler_footprint(scheduler):
    """What a scheduler tick can move: counters, queue lengths, the LUT."""
    return (
        scheduler.events_routed, scheduler.evictions, scheduler.swap_ins,
        scheduler.pending_retries, scheduler.congestion_migrations,
        scheduler.lut.accesses, len(scheduler.lut),
        [len(fifo) for fifo in scheduler.coalesce_fifos],
        len(scheduler.pending), len(scheduler._deferred_swap_ins),
        len(scheduler._migrations), len(scheduler.memory_manager.swap_in_requests),
        [len(fpc.out_evicted) for fpc in scheduler.fpcs],
    )


def test_spill_blocks_are_called_when_they_have_something_to_do(monkeypatch):
    """Counted, not timed: of the ticks the engine gives the scheduler
    and the memory manager, none finds nothing to do."""
    from repro.engine.memory_manager import MemoryManager
    from repro.engine.scheduler import Scheduler

    counts = dict.fromkeys(
        ("scheduler", "blocked", "idle", "memory_manager", "channel_busy"), 0
    )
    scheduler_tick, manager_tick = Scheduler.tick, MemoryManager.tick

    def counted_scheduler_tick(scheduler):
        before = _scheduler_footprint(scheduler)
        scheduler_tick(scheduler)
        counts["scheduler"] += 1
        if _scheduler_footprint(scheduler) == before:
            # The two blocked kinds wait on another block with the work
            # still queued here: a route refused by a full input, a
            # swap-in deferred while no victim can be evicted.
            if scheduler._deferred_swap_ins or any(
                fifo._items for fifo in scheduler.coalesce_fifos
            ):
                counts["blocked"] += 1
            else:
                counts["idle"] += 1

    def counted_manager_tick(manager):
        counts["memory_manager"] += 1
        if manager.dram.busy_until_ps > manager.time_ps_fn():
            counts["channel_busy"] += 1
        manager_tick(manager)

    monkeypatch.setattr(Scheduler, "tick", counted_scheduler_tick)
    monkeypatch.setattr(MemoryManager, "tick", counted_manager_tick)
    horizon, _ = _run_spill()
    monkeypatch.undo()

    migrations = sum(
        engine.scheduler.evictions + engine.scheduler.swap_ins
        for engine in (horizon.testbed.engine_a, horizon.testbed.engine_b)
    )
    assert migrations > 0 and counts["memory_manager"] > 0
    assert counts["idle"] == 0, counts
    assert counts["channel_busy"] == 0, counts
    # A migration costs a handful of ticks of each block, not one per
    # cycle it is in flight.
    assert counts["scheduler"] / migrations < 8, counts
    assert counts["memory_manager"] / migrations < 8, counts
    # (This shape sits out a 1 s SYN retransmission — 250 M cycles, out
    # of the per-cycle oracle's reach; the spilling run held against the
    # oracle is test_kernel_equivalence.py's.)
