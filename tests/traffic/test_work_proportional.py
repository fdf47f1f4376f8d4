"""The engine loop costs what is due, not what exists.

``Testbed.run`` ticks an engine only on a cycle its published
``next_action`` names and calls the pump only at the instant its
``next_call_ps`` names or when an engine message says so; the pump
advances only the conns a message, an accept or an arrival woke.  These tests read what the loop did from
``Testbed.loop_stats`` and hold it against the per-cycle oracle
(``tests/engine/_percycle_oracle.py``): same simulated cycles, every one
accounted for, a fraction of the ticks; and they hold the published
horizon against the from-scratch one (``tests/engine/_horizon_oracle.py``).
"""

from dataclasses import replace

import pytest

from repro.engine.ftengine import FtEngine
from repro.engine.testbed import Testbed
from repro.traffic import get_scenario
from repro.traffic.engine import _READY, LoadEngine

from ..engine._horizon_oracle import check_published_horizons, work_cycle
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
        if work_cycle(engine) != engine.cycle + 1:
            undue.append((engine.name, engine.cycle))
        tick(engine)

    monkeypatch.setattr(FtEngine, "tick", checked_tick)
    load_engine, _ = _run(scenario)
    assert load_engine.testbed.loop_stats["ticks_a"] > 0
    assert undue == []


def _conn_fields(conn) -> tuple:
    """Every field of a conn bar ``dirty`` (the pump's queue mark)."""
    return tuple(
        [list(expect) for expect in conn.srv_expect] if name == "srv_expect"
        else getattr(conn, name)
        for name in conn.__slots__ if name != "dirty"
    )


#: The advances that change nothing, per scenario run for 2 ms: one per
#: pool conn on the first pump (``connect()`` marked it, ``_pools_ready``
#: has already moved it to _READY, and no request has arrived yet), and
#: the *overtaken* ones — a conn that turned _READY in its own advance
#: while a request was pending is kept dirty, and a later conn of the
#: same pump took that request.
NO_OP_ADVANCES = {
    "mixed": {"opening": 14, "overtaken": 1},
    "lossy-mixed": {"opening": 14, "overtaken": 0},
}


@pytest.mark.parametrize("scenario", ["mixed", "lossy-mixed"])
def test_every_conn_advance_was_due(scenario, monkeypatch):
    """The pump advances a conn only when a message, an accept or an
    arrival gave it something to do: an advance that changes no conn
    field and reads no byte is one of the named few.  (That skipping
    the rest is exact is ``test_kernel_equivalence.py``'s
    ``check_parking``.)"""
    advance, pump, recv = (
        LoadEngine._advance_conn, LoadEngine._pump, FtEngine.recv_data
    )
    counts = {"advances": 0, "opening": 0, "overtaken": 0, "other": 0}
    read = [0]
    pumps = [0]
    kept = set()  # conns left dirty by _may_act at a pump's end

    def counted_pump(load_engine):
        pumps[0] += 1
        kept.clear()
        for state in load_engine.states.values():
            kept.update(id(conn) for conn in state.dirty)
        return pump(load_engine)

    def counted_recv(engine, flow_id, nbytes):
        data = recv(engine, flow_id, nbytes)
        read[0] += len(data)
        return data

    def checked_advance(load_engine, state, conn):
        counts["advances"] += 1
        before = _conn_fields(conn), read[0]
        advance(load_engine, state, conn)
        if (_conn_fields(conn), read[0]) != before:
            return
        if pumps[0] == 1:
            counts["opening"] += 1
        elif id(conn) in kept and conn.state == _READY:
            counts["overtaken"] += 1
        else:
            counts["other"] += 1

    monkeypatch.setattr(LoadEngine, "_pump", counted_pump)
    monkeypatch.setattr(LoadEngine, "_advance_conn", checked_advance)
    monkeypatch.setattr(FtEngine, "recv_data", counted_recv)
    result = LoadEngine(
        replace(get_scenario(scenario, seed=1234), duration_s=2e-3)
    ).run()
    assert result.finished and result.completed == result.offered
    assert counts["advances"] > result.completed
    assert counts["other"] == 0, counts
    assert {
        kind: counts[kind] for kind in ("opening", "overtaken")
    } == NO_OP_ADVANCES[scenario], counts


@pytest.mark.parametrize("scenario", ["mixed", "churn", "spill"])
def test_the_published_horizon_is_the_from_scratch_one(scenario, monkeypatch):
    """After every tick and every pump call each engine's ``next_action``
    is what working it out from every block, the timers and the wire
    gives — so the loop reads two integers where it used to ask."""
    from repro.engine.ftengine import FtEngine

    checked = check_published_horizons(monkeypatch)
    calls = {"next_work_cycle": 0, "runs": 0}
    publish, run = FtEngine.next_work_cycle, Testbed.run

    def counted_publish(engine):
        calls["next_work_cycle"] += 1
        return publish(engine)

    def counted_run(testbed, *args, **kwargs):
        calls["runs"] += 1
        return run(testbed, *args, **kwargs)

    monkeypatch.setattr(FtEngine, "next_work_cycle", counted_publish)
    monkeypatch.setattr(Testbed, "run", counted_run)
    if scenario == "spill":
        _run_spill()
    else:
        _run(scenario)
    assert checked["ticks"] > 0 and checked["until_calls"] > 0
    # From scratch only on entry to a run, once per engine.
    assert calls["next_work_cycle"] == 2 * calls["runs"]


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


def _scheduler_footprint(scheduler, attempts):
    """What a scheduler tick can move: counters, queue lengths, the LUT,
    and ``attempts[0]``, the routes offered to an FPC or the memory
    manager so far (one their full input refused moves nothing else)."""
    return (
        scheduler.events_routed, scheduler.evictions, scheduler.swap_ins,
        scheduler.pending_retries, scheduler.congestion_migrations,
        attempts[0], len(scheduler.lut),
        [len(fifo) for fifo in scheduler.coalesce_fifos],
        len(scheduler.pending), len(scheduler._deferred_swap_ins),
        len(scheduler._migrations), len(scheduler.memory_manager.swap_in_requests),
        [len(fpc.out_evicted) for fpc in scheduler.fpcs],
    )


def test_spill_blocks_are_called_when_they_have_something_to_do(monkeypatch):
    """Counted, not timed: of the ticks the engine gives the scheduler
    and the memory manager, none finds nothing to do — work that waits
    on another block (a route the memory manager's full input refused,
    a swap-in with no victim to evict) sleeps until that block moves."""
    from repro.engine.fpc import FlowProcessingCore
    from repro.engine.memory_manager import MemoryManager
    from repro.engine.scheduler import Scheduler

    counts = dict.fromkeys(
        ("scheduler", "blocked", "idle", "memory_manager", "channel_busy",
         "refused", "first_tries", "early_retries", "retried_for_nothing"), 0
    )
    scheduler_tick, manager_tick = Scheduler.tick, MemoryManager.tick
    offer, fpc_offer = MemoryManager.offer_event, FlowProcessingCore.offer_event
    attempts = [0]  # routes offered to a block's input
    schedulers = {}  # memory manager -> its scheduler
    pops = {}  # memory manager -> events popped off its input so far
    refused_at = {}  # id(event) -> its manager's pops when it was refused

    def counted_scheduler_tick(scheduler):
        schedulers[scheduler.memory_manager] = scheduler
        before = _scheduler_footprint(scheduler, attempts)
        first = counts["first_tries"]
        scheduler_tick(scheduler)
        counts["scheduler"] += 1
        after = _scheduler_footprint(scheduler, attempts)
        if after[:5] + after[6:] == before[:5] + before[6:]:
            # Nothing moved but refused routes: it must at least have
            # tried a head for the first time since its input last popped.
            counts["retried_for_nothing"] += counts["first_tries"] == first
        if after == before:
            # The two blocked kinds wait on another block with the work
            # still queued here: a route refused by a full input, a
            # swap-in deferred while no victim can be evicted.
            if scheduler._deferred_swap_ins or any(scheduler.coalesce_fifos):
                counts["blocked"] += 1
            else:
                counts["idle"] += 1

    def counted_manager_tick(manager):
        counts["memory_manager"] += 1
        if manager.dram.busy_until_ps > manager.time_ps_fn():
            counts["channel_busy"] += 1
        queued = len(manager.input)
        manager_tick(manager)
        pops[manager] = pops.get(manager, 0) + queued - len(manager.input)

    def counted_fpc_offer(fpc, event):
        attempts[0] += 1
        return fpc_offer(fpc, event)

    def checked_offer(manager, event):
        attempts[0] += 1
        head = any(
            fifo and fifo[0] is event
            for fifo in schedulers[manager].coalesce_fifos
        )
        popped = pops.get(manager, 0)
        if head:
            if refused_at.get(id(event)) == popped:
                counts["early_retries"] += 1  # in a tick that had other work
            else:
                counts["first_tries"] += 1
        accepted = offer(manager, event)
        if accepted:
            refused_at.pop(id(event), None)
        elif head:
            counts["refused"] += 1
            refused_at[id(event)] = popped
        return accepted

    monkeypatch.setattr(Scheduler, "tick", counted_scheduler_tick)
    monkeypatch.setattr(MemoryManager, "tick", counted_manager_tick)
    monkeypatch.setattr(MemoryManager, "offer_event", checked_offer)
    monkeypatch.setattr(FlowProcessingCore, "offer_event", counted_fpc_offer)
    horizon, _ = _run_spill()
    monkeypatch.undo()

    migrations = sum(
        engine.scheduler.evictions + engine.scheduler.swap_ins
        for engine in (horizon.testbed.engine_a, horizon.testbed.engine_b)
    )
    assert migrations > 0 and counts["memory_manager"] > 0
    assert counts["idle"] == 0, counts
    assert counts["blocked"] == 0, counts
    assert counts["refused"] > 0 and counts["retried_for_nothing"] == 0, counts
    assert counts["channel_busy"] == 0, counts
    # A migration costs a handful of ticks of each block, not one per
    # cycle it is in flight.
    assert counts["scheduler"] / migrations < 8, counts
    assert counts["memory_manager"] / migrations < 8, counts
    # (This shape sits out a 1 s SYN retransmission — 250 M cycles, out
    # of the per-cycle oracle's reach; the spilling runs held against the
    # scheduler ticked on every cycle are test_kernel_equivalence.py's.)
