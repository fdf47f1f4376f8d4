"""The from-scratch engine horizon, kept as the published one's oracle.

``Testbed.run`` used to ask each engine for its horizon after every tick
and every pump call, and the engine worked the answer out from every
block, the timers and the wire.  The engine now publishes
``next_action`` (the end of a tick sets it, a submitted event pulls it
in, the testbed folds a peer's frame in); this is the computation that
replaced, and :func:`work_cycle` must equal the published value
whenever the loop could read it.
"""

from repro.engine.ftengine import ENGINE_PERIOD_PS, FtEngine
from repro.engine.testbed import Testbed
from repro.sim.component import NEVER


def work_cycle(engine) -> int:
    """The first cycle on which ``engine.tick()`` does work (NEVER if
    nothing is scheduled), worked out from scratch."""
    cycle = engine.cycle
    if engine._event_backlog or engine.rx_parser.notifications:
        return cycle + 1
    best = min(
        engine.memory_manager.next_action,
        engine.scheduler.next_action,
        *(fpc.next_action for fpc in engine.fpcs),
    )
    in_flight = engine.port._inbound._in_flight if engine.port else None
    if in_flight:
        # The first cycle whose wire poll, ``arrival <= cycle * period``,
        # delivers the head frame.
        arrival_ps = in_flight[0][0]
        k = int(arrival_ps // ENGINE_PERIOD_PS)
        while k * ENGINE_PERIOD_PS < arrival_ps:
            k += 1
        best = min(best, k)
    hint_ps = engine.timers.earliest_hint
    if hint_ps != NEVER:
        # The first cycle whose timer check, ``hint <= cycle * period``,
        # passes.
        best = min(best, -(-hint_ps // ENGINE_PERIOD_PS))
    return cycle + 1 if best <= cycle else best


def check_published_horizons(monkeypatch) -> dict:
    """From here on, assert that each engine's ``next_action`` equals
    :func:`work_cycle` after every engine tick and, for both engines,
    after every ``until`` call of ``Testbed.run``.  Returns the counts
    of checks made, so a caller can see the checks ran."""
    checked = {"ticks": 0, "until_calls": 0}
    tick, run = FtEngine.tick, Testbed.run

    def checked_tick(engine):
        tick(engine)
        assert engine.next_action == work_cycle(engine), (engine.name, engine.cycle)
        checked["ticks"] += 1

    def checked_run(testbed, until=None, *args, **kwargs):
        if until is not None:
            pump = until

            def until():
                done = pump()
                for engine in (testbed.engine_a, testbed.engine_b):
                    assert engine.next_action == work_cycle(engine), (
                        engine.name, engine.cycle,
                    )
                checked["until_calls"] += 1
                return done

        return run(testbed, until, *args, **kwargs)

    monkeypatch.setattr(FtEngine, "tick", checked_tick)
    monkeypatch.setattr(Testbed, "run", checked_run)
    return checked
