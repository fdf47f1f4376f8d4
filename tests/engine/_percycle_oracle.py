"""The retired per-cycle loop, kept as the horizon loop's test oracle.

``Testbed.run`` once visited every cycle unless the pump declared a
schedule (today its ``next_call_ps``).  That loop lives on here, with
nothing to skip by: every cycle ``until()`` is called, both engines are
set to the cycle and both are ticked — no horizon, no jump, no declared
schedule.  A run under
:func:`use_per_cycle` never depends on what a block published or a pump
declared, so the horizon loop must land on the same history.
"""

from repro.engine.ftengine import ENGINE_PERIOD_PS
from repro.engine.testbed import Testbed
from repro.sim.component import seconds_to_ps


def step(testbed) -> None:
    """One 250 MHz cycle for both engines."""
    testbed.engine_a.cycle = testbed.engine_b.cycle = testbed.cycle
    testbed.cycle += 1
    testbed.engine_a.tick()
    testbed.engine_b.tick()


def run_per_cycle(testbed, until, max_time_s=1.0, **_declared):
    """``Testbed.run`` by brute force; True as soon as ``until()`` holds."""
    max_time_ps = seconds_to_ps(max_time_s)
    while not until():
        if testbed.cycle * ENGINE_PERIOD_PS >= max_time_ps:
            return False
        step(testbed)
    return True


def use_per_cycle(monkeypatch) -> None:
    """Every ``Testbed.run`` from here on is the per-cycle loop."""
    monkeypatch.setattr(Testbed, "run", run_per_cycle)
