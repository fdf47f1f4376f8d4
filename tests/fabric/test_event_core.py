"""The fabric event core does work in proportion to events.

Counts, not timings: they repeat exactly, so a reintroduced all-hosts
sweep (every stack ticked, every port rescanned, at every instant)
fails here in tier-1 instead of showing up as a slow benchmark.
"""

import pytest

from repro.fabric import get_fabric_scenario
from repro.fabric.engine import FabricLoadEngine
from repro.fabric.softstack import SoftStack


def run_engine(name: str, num_hosts: int, backend: str = "f4t"):
    scenario = get_fabric_scenario(name, num_hosts=num_hosts, seed=1234)
    engine = FabricLoadEngine(scenario, backend=backend)
    assert engine.run().finished
    return engine


@pytest.mark.parametrize("name", ["incast", "flash_crowd"])
def test_host_queues_are_drained(name):
    """The driver consumes what the stacks post: nothing is left queued
    (before the pump drained, every delivered segment stayed on
    ``host_messages[0]`` for the whole run)."""
    engine = run_engine(name, 8)
    assert sum(s.packets_received for s in engine.stacks) > 0
    assert [len(s.host_messages[0]) for s in engine.stacks] == [0] * 8


@pytest.mark.parametrize("num_hosts", [8, 16])
def test_work_is_proportional_to_events(num_hosts, monkeypatch):
    ticks = []
    original = SoftStack.tick

    def counted_tick(stack):
        timer_due = stack.timer_due(stack.now_ps)
        received = stack.packets_received
        original(stack)
        ticks.append(timer_due or stack.packets_received > received)

    monkeypatch.setattr(SoftStack, "tick", counted_tick)
    engine = run_engine("incast", num_hosts)
    # Every tick had something to do — a packet to receive or a timer
    # entry to pop — hence ticks <= packets received + timer pops.
    assert ticks and all(ticks)
    # One heap pop per switch event: an uplink arrival or an egress start.
    fabric = engine.fabric
    ingress = sum(u.frames_sent - u.in_flight for u in fabric._uplinks)
    assert fabric.events_popped == ingress + fabric.forwarded
