"""The fabric event core does work in proportion to events.

Counts, not timings: they repeat exactly, so a reintroduced all-hosts
sweep (every stack ticked, every port rescanned, at every instant)
fails here in tier-1 instead of showing up as a slow benchmark.
"""

import pytest

from repro.fabric import get_fabric_scenario
from repro.fabric.engine import FabricLoadEngine
from repro.fabric.service import FlexToeService
from repro.fabric.softstack import SoftStack, SoftTestbed, TimerWakeIndex

from ._scan_oracle import StackVisits, record_instants, timer_due, use_scan


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
        due = timer_due(stack, stack.now_ps)
        received = stack.packets_received
        original(stack)
        ticks.append(due or stack.packets_received > received)

    monkeypatch.setattr(SoftStack, "tick", counted_tick)
    engine = run_engine("incast", num_hosts)
    # Every tick had something to do — a packet to receive or a timer
    # entry to pop — hence ticks <= packets received + timer pops.
    assert ticks and all(ticks)
    # One heap pop per switch event: an uplink arrival or an egress start.
    fabric = engine.fabric
    ingress = sum(u.frames_sent - u.in_flight for u in fabric._uplinks)
    assert fabric.events_popped == ingress + fabric.forwarded


# ------------------------------------------------- the timer wake index
def run_lossy_testbed():
    """Four bulk transfers over a 5 % drop wire: RTO timers fire, back
    off and leave stale heap entries behind, and a pop on one flow
    leaves the others' entries as the stack's new raw head."""
    tb = SoftTestbed(lambda: FlexToeService(), drop_probability=0.05, seed=7)
    tb.engine_b.listen(80)
    flows = [tb.engine_a.connect(tb.engine_b.ip, 80) for _ in range(4)]
    total = 64 * 1024
    sent = dict.fromkeys(flows, 0)
    got = {}

    def pump() -> bool:
        accepted = tb.engine_b.accept(80)
        if accepted is not None:
            got[accepted] = 0
        for flow in flows:
            if sent[flow] < total:
                sent[flow] += tb.engine_a.send_data(
                    flow, bytes(total - sent[flow])
                )
        for flow in got:
            got[flow] += len(tb.engine_b.recv_data(flow, tb.engine_b.readable(flow)))
        return len(got) == 4 and all(n >= total for n in got.values())

    assert tb.run(until=pump, max_time_s=0.5)
    assert tb.engine_a.timeouts > 0 and tb.wire.frames_dropped > 0
    return tb


def recorded(monkeypatch, run, scan: bool):
    with monkeypatch.context() as patch:
        if scan:
            use_scan(patch)
        records = record_instants(patch)
        run()
    return records


@pytest.mark.parametrize("run", [
    lambda: run_engine("incast", 8),
    lambda: run_engine("incast", 8, backend="linux_stack"),  # RTOs fire
    lambda: run_engine("flash_crowd", 8),
    run_lossy_testbed,
], ids=["incast", "incast_linux", "flash_crowd", "lossy_testbed"])
def test_index_visits_the_instants_and_ticks_the_stacks_of_the_scan(
    run, monkeypatch
):
    """Instant by instant: the same instants and the same ticked hosts
    as asking every stack ``timer_due`` and walking every timer heap.
    Fails if a publish site (``_arm``'s new head, the re-publish after
    ``_expire_timers`` / ``next_wakeup_ps`` pop) goes missing."""
    index = recorded(monkeypatch, run, scan=False)
    scan = recorded(monkeypatch, run, scan=True)
    assert any(kind == "tick" for kind, _who, _at in index)
    assert index == scan


def run_incast_beside_idle_hosts(idle: int, monkeypatch):
    """The 8-host incast on a fabric that also has ``idle`` hosts
    nobody connects to; returns (stack method calls, wake index)."""
    active = get_fabric_scenario("incast", num_hosts=8, seed=1234)
    with monkeypatch.context() as patch:
        visits = StackVisits(patch)
        engine = FabricLoadEngine(active.with_hosts(8 + idle))
        engine.scenario = active  # connect and drive the first 8 only
        assert engine.run().finished
    assert len(engine.stacks) == 8 + idle
    return visits.calls, engine._wake


def test_idle_hosts_cost_no_stack_visits(monkeypatch):
    few, _ = run_incast_beside_idle_hosts(8, monkeypatch)
    many, wake = run_incast_beside_idle_hosts(32, monkeypatch)
    # listen() is per host at setup; everything the loop does per
    # instant is the same whether 8 or 32 hosts sit idle.
    assert many.pop("listen") == few.pop("listen") + 24
    assert many == few
    assert many["tick"] > 0 and wake.pushes > 0
    # The index is exact bookkeeping: every entry pushed was popped
    # live (and its host ticked) or stale, or is still queued.
    assert wake.pushes == wake.live_pops + wake.stale_pops + len(wake._heap)


def test_every_live_pop_is_ticked(monkeypatch):
    popped, ticked = [], []
    pop_due = TimerWakeIndex.pop_due
    tick = SoftStack.tick

    def watched_pop_due(self, now_ps, due):
        before = set(due)
        pop_due(self, now_ps, due)
        popped.extend((now_ps, f"h{host}") for host in due - before)

    def watched_tick(stack):
        ticked.append((stack.now_ps, stack.name))
        tick(stack)

    monkeypatch.setattr(TimerWakeIndex, "pop_due", watched_pop_due)
    monkeypatch.setattr(SoftStack, "tick", watched_tick)
    # linux_stack: its slow service path lets RTOs fire (f4t pops none).
    engine = run_engine("incast", 8, backend="linux_stack")
    assert popped and set(popped) <= set(ticked)
    assert engine._wake.live_pops >= len(popped)
