"""Two races of the scheduler's migration protocol, pinned as schedules.

Both run on the 64-slot spill design (4 FPCs x 16 slots, 72 flows, so 8
live in DRAM) and are built step by step:

* **An evict request races the flow's last handled event.**  A flow's
  send event waits in its FPC's input behind other flows' events while
  a DRAM flow's swap-in picks that flow as the victim.  The evict pass
  retires with the event handled into the event table meanwhile, so the
  evict checker must write the TCB back and send the flow through the
  FPU once more (``FlowProcessingCore._retire``'s backlog branch)
  before it leaves: the event's ``req`` pointer reaches the TCB, goes
  to DRAM with it and is acknowledged.
* **An RTO fires while the flow is MOVING.**  A flow's only data
  segment is lost; just before its retransmission timer expires, a
  swap-in picks it as the victim, and the DRAM channel is held once it
  is leaving.  The timeout finds it MOVING: it is pended, retried, and
  handled in DRAM, whose check logic swaps the flow back in; the
  retransmission goes out and is acknowledged.

Both end with no flow left MOVING and a clean invariant monitor.
"""

from repro.engine.ftengine import ENGINE_PERIOD_PS, FtEngineConfig
from repro.engine.scheduler import Location
from repro.engine.testbed import Testbed
from repro.engine.verification import InvariantMonitor
from repro.net.wire import Wire
from repro.tcp.state_machine import TcpState

FLOWS = 72  # on 4 x 16 TCB slots: 8 live in DRAM
CONFIG = FtEngineConfig(num_fpcs=4, fpc_slots=16)


def _spill_rig(wire=None):
    """Both engines on the spill design, ``FLOWS`` connections up."""
    tb = Testbed(config_a=CONFIG, config_b=CONFIG, wire=wire)
    a, b = tb.engine_a, tb.engine_b
    b.listen(80)
    flows = [a.connect(b.ip, 80) for _ in range(FLOWS)]
    assert tb.run(
        until=lambda: all(a.flow_state(f) is TcpState.ESTABLISHED for f in flows),
        max_time_s=tb.now_s + 5.0,
    )
    return tb, flows


def _settled(tb, monitors):
    for engine in (tb.engine_a, tb.engine_b):
        assert all(
            engine.scheduler.location_of(f) is not Location.MOVING
            for f in engine.flows
        )
    assert [monitor.check() for monitor in monitors] == [[], []]


def _passes_of(fpc, flow):
    """Count the FPU passes of ``flow`` on ``fpc`` (a list, appended to)."""
    passes = []
    process = fpc.fpu.process

    def counted(tcb, dup, now_ps):
        if tcb.flow_id == flow:
            passes.append(tcb.req)
        return process(tcb, dup, now_ps)

    fpc.fpu.process = counted
    return passes


def test_an_evict_request_racing_the_last_handled_event_writes_back_first():
    tb, flows = _spill_rig()
    a = tb.engine_a
    monitors = [InvariantMonitor(a), InvariantMonitor(tb.engine_b)]
    scheduler = a.scheduler
    fpc = scheduler._fpc_with_lowest_count(require_room=False)
    victim = scheduler._victim(fpc)
    others = [
        f for f in fpc.resident_flows() if f != victim
    ][:8]
    dram_flow = next(f for f in flows if scheduler.location_of(f) is Location.DRAM)

    requested = []
    request_evict = fpc.request_evict

    def recorded(flow_id):
        # What the FPC holds of the victim when the request lands.
        requested.append(
            (flow_id, [e.flow_id for e in fpc.input].count(flow_id))
        )
        return request_evict(flow_id)

    fpc.request_evict = recorded
    evicted = []
    drain = fpc.drain_evicted

    def drained():
        tcbs = drain()
        evicted.extend((t.flow_id, t.req) for t in tcbs)
        return tcbs

    fpc.drain_evicted = drained
    passes = _passes_of(fpc, victim)

    # 1. Eight of the FPC's other flows send first, then the victim:
    #    the FPC handles one event per two cycles, so the victim's
    #    event waits in its input behind theirs.
    for flow in others:
        a.send_data(flow, b"o" * 100)
    a.send_data(victim, b"v" * 100)
    pointer = a.flows[victim].stream.end_seq
    assert tb.run(
        until=lambda: any(e.flow_id == victim for e in fpc.input),
        max_time_s=tb.now_s + 1e-3,
    )
    # 2. A DRAM flow's send asks for a swap-in; every FPC is full, so
    #    the victim is asked to leave while its event still waits.
    a.send_data(dram_flow, b"d" * 100)
    assert tb.run(until=lambda: bool(evicted), max_time_s=tb.now_s + 1e-3)
    assert requested == [(victim, 1)]
    # 3. The evict pass retired with the event handled meanwhile: the
    #    TCB was written back and passed again, and only then left —
    #    carrying the event's pointer to DRAM.
    assert passes == [passes[0], pointer] and passes[0] != pointer
    assert evicted == [(victim, pointer)]
    assert scheduler.location_of(victim) is Location.DRAM
    assert tb.run(
        until=lambda: scheduler.location_of(dram_flow) is Location.FPC,
        max_time_s=tb.now_s + 1e-6,
    )

    # 4. The peer's ACK brings it back in; the pointer is acknowledged.
    assert tb.run(
        until=lambda: a.tcb_of(victim).snd_una == pointer,
        max_time_s=tb.now_s + 1e-2,
    )
    assert a.tcb_of(victim).req == pointer
    assert tb.run(
        until=lambda: all(
            a.tcb_of(f).snd_una == a.flows[f].stream.end_seq
            for f in [*others, dram_flow]
        ),
        max_time_s=tb.now_s + 1e-2,
    )
    _settled(tb, monitors)


def test_an_rto_firing_while_the_flow_is_moving_is_pended_and_retried():
    lost = []

    def drop_first_data(frame, index):
        segment = frame.payload
        if not lost and getattr(segment, "payload", b"") == b"v" * 100:
            lost.append(index)
            return True
        return False

    tb, flows = _spill_rig(Wire(drop_a_to_b=drop_first_data))
    a = tb.engine_a
    monitors = [InvariantMonitor(a), InvariantMonitor(tb.engine_b)]
    scheduler = a.scheduler
    fpc = scheduler._fpc_with_lowest_count(require_room=False)
    victim = fpc.resident_flows()[0]
    others = [f for f in fpc.resident_flows() if f != victim]
    dram_flow = next(f for f in flows if scheduler.location_of(f) is Location.DRAM)

    pended = []
    pend = scheduler._pend

    def recorded(event):
        pended.append(
            (event.flow_id, event.kind.value, scheduler.location_of(event.flow_id))
        )
        pend(event)

    scheduler._pend = recorded

    # 1. The victim's only data segment is lost; the FPC's other flows
    #    send and are acknowledged after it, so it is the coldest there.
    a.send_data(victim, b"v" * 100)
    pointer = a.flows[victim].stream.end_seq
    assert tb.run(until=lambda: bool(lost), max_time_s=tb.now_s + 1e-3)
    for flow in others:
        a.send_data(flow, b"o" * 100)
    assert tb.run(
        until=lambda: all(
            a.tcb_of(f).snd_una == a.flows[f].stream.end_seq for f in others
        ),
        max_time_s=tb.now_s + 1e-2,
    )
    assert scheduler._victim(fpc) == victim
    deadline = a.tcb_of(victim).rto_deadline
    assert a.timers.next_deadline() == deadline > a.time_ps
    # (Counted from here: opening the spilled flows fired some.)
    fired = a.counters["timeouts_fired"]
    resent = a.counters["retransmissions"]

    # 2. Just short of the deadline, a DRAM flow's send picks the
    #    victim to leave (every FPC is full) ...
    lead = fpc.fpu.latency_cycles // 2
    tb.run(
        until=lambda: False,
        max_time_s=(deadline - lead * ENGINE_PERIOD_PS) / 1e12,
    )
    assert a.counters["timeouts_fired"] == fired
    a.send_data(dram_flow, b"d" * 100)
    assert tb.run(
        until=lambda: scheduler.location_of(victim) is Location.MOVING,
        max_time_s=tb.now_s + 1e-6,
    )
    assert a.time_ps < deadline
    # 3. ... and, once it is leaving, the DRAM channel is held.
    a.dram.transfer(10_000_000, a.time_ps)
    assert tb.run(
        until=lambda: a.counters["timeouts_fired"] == fired + 1,
        max_time_s=tb.now_s + 1e-6,
    )
    # The timeout found the flow MOVING: pended, then retried.
    assert pended == [(victim, "timeout", Location.MOVING)]
    retries = scheduler.pending_retries
    assert tb.run(
        until=lambda: scheduler.pending_retries > retries,
        max_time_s=tb.now_s + 1e-6,
    )
    # The retry found the flow in DRAM: the timeout waits in the
    # memory manager's input behind the held channel.
    assert scheduler.location_of(victim) is Location.DRAM
    assert [(e.flow_id, e.kind.value) for e in a.memory_manager.input] == [
        (victim, "timeout")
    ]
    assert a.dram.busy_until_ps > a.time_ps

    # 4. Handled in DRAM once the channel frees, swapped back in, and
    #    the retransmission goes out and is acknowledged.
    assert tb.run(
        until=lambda: a.tcb_of(victim).snd_una == pointer,
        max_time_s=tb.now_s + 1e-2,
    )
    assert a.counters["retransmissions"] == resent + 1
    assert scheduler.location_of(victim) is Location.FPC
    assert tb.run(
        until=lambda: a.tcb_of(dram_flow).snd_una
        == a.flows[dram_flow].stream.end_seq,
        max_time_s=tb.now_s + 1e-2,
    )
    _settled(tb, monitors)
