"""The retired per-cycle loop, kept as the horizon loop's test oracle.

Until PR 23 ``Testbed.run`` without a ``quiet_cycle`` visited every
cycle.  That loop lives on here, with nothing to skip by: every cycle
``until()`` is called, both engines are set to the cycle and both are
ticked — no horizon, no jump, no declared schedule.  A run under
:func:`use_per_cycle` never depends on what a block published or a pump
declared, so the horizon loop must land on the same history.
"""

from repro.engine.ftengine import ENGINE_PERIOD_PS
from repro.engine.testbed import Testbed


def run_per_cycle(testbed, until, max_time_s=1.0, **_declared):
    """``Testbed.run`` by brute force; True as soon as ``until()`` holds."""
    max_time_ps = max_time_s * 1e12
    while not until():
        if testbed.cycle * ENGINE_PERIOD_PS >= max_time_ps:
            return False
        testbed.step()
    return True


def use_per_cycle(monkeypatch) -> None:
    """Every ``Testbed.run`` from here on is the per-cycle loop."""
    monkeypatch.setattr(Testbed, "run", run_per_cycle)
