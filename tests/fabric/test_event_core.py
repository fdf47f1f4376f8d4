"""The fabric event core does work in proportion to events.

Counts, not timings: they repeat exactly, so a reintroduced all-hosts
sweep (every stack ticked, every port rescanned, at every instant)
fails here in tier-1 instead of showing up as a slow benchmark.
"""

import pytest

from repro.fabric import get_fabric_scenario
from repro.fabric.engine import FabricLoadEngine
from repro.fabric.service import FlexToeService
from repro.fabric.softstack import RTO_PS, FabricPacket, SoftStack, TimerHeap
from repro.tcp.segment import FlowKey, ip_from_string
from repro.tcp.state_machine import TcpState

from ._scan_oracle import StackVisits, record_instants, use_scan
from ._soft_testbed import (
    SoftTestbed, SwitchTestbed, hold_the_switch_to_its_landings,
)


def run_engine(name: str, num_hosts: int, backend: str = "f4t"):
    scenario = get_fabric_scenario(name, num_hosts=num_hosts, seed=1234)
    engine = FabricLoadEngine(scenario, backend=backend)
    assert engine.run().finished
    return engine


@pytest.mark.parametrize("name", ["incast", "flash_crowd"])
def test_host_queues_are_drained(name):
    """The driver consumes what the stacks post: nothing is left queued
    (before the pump drained, every delivered segment stayed on
    ``host_messages`` for the whole run)."""
    engine = run_engine(name, 8)
    assert sum(s.packets_received for s in engine.stacks) > 0
    assert [len(s.host_messages) for s in engine.stacks] == [0] * 8


@pytest.mark.parametrize("num_hosts", [8, 16])
def test_work_is_proportional_to_events(num_hosts, monkeypatch):
    ticks = []
    original = SoftStack.tick

    def counted_tick(stack):
        due = bool(stack._due_timers)
        received = stack.packets_received
        original(stack)
        ticks.append(due or stack.packets_received > received)

    monkeypatch.setattr(SoftStack, "tick", counted_tick)
    engine = run_engine("incast", num_hosts)
    # Every tick had something to do — a packet to receive or a timer
    # entry to pop — hence ticks <= packets received + timer pops.
    assert ticks and all(ticks)
    # One heap pop per switch event: an uplink arrival (every packet a
    # stack sent, less those still on their uplink) or an egress start.
    fabric = engine.fabric
    on_uplinks = sum(1 for event in fabric._events if event[3] is not None)
    ingress = sum(s.packets_sent for s in engine.stacks) - on_uplinks
    assert fabric.events_popped == ingress + fabric.forwarded


@pytest.mark.parametrize("backend", ["f4t", "linux_stack"])
def test_the_switch_runs_ahead_to_host_visible_instants(backend, monkeypatch):
    """The loop lands only where a host can act — about once per
    forwarded packet, not once per switch event — and the switch, run
    ahead between landings, never passes the next one.  On linux_stack
    RTOs fire while the switch still has events pending: a run ahead
    bounded by deliveries and the pump alone passes those landings."""
    landings = hold_the_switch_to_its_landings(monkeypatch)
    engine = run_engine("incast", 8, backend=backend)
    # Measured 0.998 (f4t) and 1.005 (linux_stack) landings per
    # forwarded packet; 2.44 and 2.31 when it landed on every event.
    assert len(landings) <= 1.05 * engine.fabric.forwarded
    if backend == "linux_stack":
        assert sum(stack.timeouts for stack in engine.stacks) > 0


def test_a_live_timer_top_is_validated_once_per_step(monkeypatch):
    """The heap's live top is validated once per horizon step, before
    the switch runs ahead, and a step that validates it lands where a
    stack ticks: no live top is validated twice with no tick between."""
    ticks, validated, repeats = [0], [], []
    tick = SoftStack.tick
    next_deadline_ps = TimerHeap.next_deadline_ps

    def counted_tick(stack):
        ticks[0] += 1
        tick(stack)

    def lowered(timers, bound):
        found = next_deadline_ps(timers, bound)
        if found is not None and found != bound:  # a timer deadline, validated live
            seen = (timers._heap[0], ticks[0])
            if validated and validated[-1] == seen:
                repeats.append(found)
            validated.append(seen)
        return found

    monkeypatch.setattr(SoftStack, "tick", counted_tick)
    monkeypatch.setattr(TimerHeap, "next_deadline_ps", lowered)
    engine = run_engine("incast", 16, backend="linux_stack")
    assert validated and sum(stack.timeouts for stack in engine.stacks) > 0
    assert repeats == []


def test_a_stall_stops_the_clock_where_the_switch_s_events_did():
    """With nothing left for a host to do, the loop stops the clock at
    the switch's last event — or at the deadline while one is still
    due past it — as it did when it landed on every switch event (the
    instants pinned are from then)."""
    tb = SwitchTestbed(FlexToeService)
    b = tb.engine_b
    # A FIN of no connection: b re-ACKs it from the segment alone, to
    # an address no host has, and the switch blackholes the ACK.
    stray = FlowKey(ip_from_string("10.0.0.99"), 5, b.ip, 80)
    tb.engine_a.port.send(FabricPacket("fin", stray, offset=7), 0)
    assert not tb.run(until=lambda: False, max_time_s=0.01)
    assert (b.packets_sent, tb.wire.dropped) == (1, 1)
    assert tb.time_ps == 8_518_720  # the blackholed ACK's ingress
    # A SYN to that address: its ingress, past the first deadline,
    # holds the clock at the deadline; the second run drops it.
    nowhere = FlowKey(tb.engine_a.ip, 5, ip_from_string("10.0.0.99"), 80)
    tb.engine_a.port.send(FabricPacket("syn", nowhere), tb.time_ps)
    assert not tb.run(until=lambda: False, max_time_s=9e-6)
    assert (tb.time_ps, tb.wire.dropped) == (9_000_000, 1)
    assert not tb.run(until=lambda: False, max_time_s=2e-5)
    assert (tb.time_ps, tb.wire.dropped) == (10_524_960, 2)


# ------------------------------------------------- when the pump is called
@pytest.mark.parametrize("name", ["incast", "flash_crowd"])
def test_every_pump_call_is_due(name, monkeypatch):
    """The pump runs at the instant its previous call declared (the
    next picosecond for "now") — never past it — or earlier only when
    a stack ticked at that instant posted a host message."""
    seen = {"declared": None, "posted_at": None}
    calls, undue = [], []
    tick = SoftStack.tick
    pump = FabricLoadEngine._pump
    next_call_ps = FabricLoadEngine._next_call_ps

    def watched_tick(stack):
        epoch = stack.msg_epoch
        tick(stack)
        if stack.msg_epoch != epoch:
            seen["posted_at"] = stack.now_ps

    def watched_pump(engine):
        now, declared = engine.time_ps, seen["declared"]
        calls.append(now)
        posted = seen["posted_at"] == now
        if declared is not None and not (
            now == declared or (now < declared and posted)
        ):
            undue.append(now)
        return pump(engine)

    def watched_next_call_ps(engine):
        at = next_call_ps(engine)
        seen["declared"] = max(at, engine.time_ps + 1)
        return at

    monkeypatch.setattr(SoftStack, "tick", watched_tick)
    monkeypatch.setattr(FabricLoadEngine, "_pump", watched_pump)
    monkeypatch.setattr(FabricLoadEngine, "_next_call_ps", watched_next_call_ps)
    engine = run_engine(name, 8)
    assert engine.result.completed == engine.result.offered
    assert calls and undue == []


# ------------------------------------------------------- the timer heap
def run_lossy_testbed():
    """Four bulk transfers over a 5 % drop wire: RTO timers fire, back
    off and leave stale heap entries behind."""
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
    as visiting every host's timer entries for the due ones and the
    earliest live one.  Fails if the heap hands over, drops or
    re-indexes an entry the scan would not."""
    index = recorded(monkeypatch, run, scan=False)
    scan = recorded(monkeypatch, run, scan=True)
    assert any(kind == "tick" for kind, _who, _at in index)
    assert index == scan


def test_pop_due_hands_each_host_its_entries_in_deadline_then_flow_order():
    tb = SoftTestbed(FlexToeService)
    timers, due = tb.timers, set()
    for deadline, host, flow_id in [(30, 1, 4), (10, 0, 7), (40, 0, 3), (10, 0, 2), (20, 1, 1)]:
        timers.push(deadline, host, flow_id)
    timers.pop_due(30, due)
    assert due == {0, 1}
    assert tb.engine_a._due_timers == [(10, 0, 2), (10, 0, 7)]
    assert tb.engine_b._due_timers == [(20, 1, 1), (30, 1, 4)]
    assert timers._heap == [(40, 0, 3)] and timers.live_pops == 4


def run_incast_beside_idle_hosts(idle: int, monkeypatch):
    """The 8-host incast on a fabric that also has ``idle`` hosts
    nobody connects to; returns (stack method calls, timer heap)."""
    active = get_fabric_scenario("incast", num_hosts=8, seed=1234)
    with monkeypatch.context() as patch:
        visits = StackVisits(patch)
        engine = FabricLoadEngine(active.with_hosts(8 + idle))
        engine.scenario = active  # connect and drive the first 8 only
        assert engine.run().finished
    assert len(engine.stacks) == 8 + idle
    return visits.calls, engine.timers


def test_idle_hosts_cost_no_stack_visits(monkeypatch):
    few, _ = run_incast_beside_idle_hosts(8, monkeypatch)
    many, timers = run_incast_beside_idle_hosts(32, monkeypatch)
    # listen() is per host at setup; everything the loop does per
    # instant is the same whether 8 or 32 hosts sit idle.
    assert many.pop("listen") == few.pop("listen") + 24
    assert many == few
    assert many["tick"] > 0 and timers.pushes > 0
    # The heap is exact bookkeeping: every entry pushed was handed to
    # its host (and the host ticked) or dropped stale, or is still queued.
    assert timers.pushes == timers.live_pops + timers.stale_pops + len(timers._heap)


def test_every_live_pop_is_ticked(monkeypatch):
    popped, ticked = [], []
    pop_due = TimerHeap.pop_due
    tick = SoftStack.tick

    def watched_pop_due(self, now_ps, due):
        before = set(due)
        pop_due(self, now_ps, due)
        popped.extend((now_ps, f"h{host}") for host in due - before)

    def watched_tick(stack):
        ticked.append((stack.now_ps, stack.name))
        tick(stack)

    monkeypatch.setattr(TimerHeap, "pop_due", watched_pop_due)
    monkeypatch.setattr(SoftStack, "tick", watched_tick)
    # linux_stack: its slow service path lets RTOs fire (f4t pops none).
    engine = run_engine("incast", 8, backend="linux_stack")
    assert popped and set(popped) <= set(ticked)
    assert engine.timers.live_pops >= len(popped)


class TestLongIdleTimer:
    """A soft stack's RTO backed off to its cap with nothing else to do:
    the event loop jumps from deadline to deadline, and the timer heap
    hands over each one at exactly its instant."""

    def test_backed_off_rto_fires_at_its_instant(self):
        # Every data segment is dropped: the RTO fires, backs off and
        # fires again, and nothing else happens in between.
        testbed = SoftTestbed(FlexToeService, drop_probability=1.0, seed=0)
        stack = testbed.engine_a
        testbed.engine_b.listen(80)
        flow_id = stack.connect(testbed.engine_b.ip, 80)
        assert testbed.run(
            until=lambda: stack.flow_state(flow_id) is TcpState.ESTABLISHED,
            max_time_s=0.01,
        )
        stack.send_data(flow_id, bytes(1000))
        flow = stack.flows[flow_id]
        timers = testbed.timers
        live_before, stale_before = timers.live_pops, timers.stale_pops
        fires = []  # (instant, the deadline armed before it)
        seen = {"timeouts": 0, "deadline": None, "instants": 0}

        def until():
            seen["instants"] += 1
            if stack.timeouts != seen["timeouts"]:
                seen["timeouts"] = stack.timeouts
                fires.append((testbed.time_ps, seen["deadline"]))
            seen["deadline"] = flow.rto_deadline_ps
            return stack.timeouts >= 9

        # A timeout posts no host message: the pump names its instants.
        assert testbed.run(
            until=until, max_time_s=testbed.now_s + 1.0,
            next_call_ps=lambda: flow.rto_deadline_ps,
        )
        assert all(instant == deadline for instant, deadline in fires)
        gaps = [b[0] - a[0] for a, b in zip(fires, fires[1:])]
        assert gaps[-3:] == [RTO_PS << 6] * 3  # the backoff cap, 3.2 ms
        # One instant per timeout (plus the first call and the one that
        # sent the data), not one per cycle or per host.
        assert seen["instants"] == len(fires) + 2
        live = timers.live_pops - live_before
        stale = timers.stale_pops - stale_before
        assert timers.pushes == timers.live_pops + timers.stale_pops + len(timers._heap)
        # Each due instant pops the one entry its flow re-armed.  The
        # only stale entries are the two handshake timers the
        # connection setup left behind.
        assert live == len(fires)
        assert stale == 2
