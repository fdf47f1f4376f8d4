"""An event that waits in the memory manager while its flow is swapped
in reaches the FPC (once a lost request, pinned here as a schedule).

On the 64-slot spill design the ordering is built step by step:

1. a DRAM-resident flow asks to be swapped in (its first send);
2. the DRAM channel is held busy, and a second send's event is routed
   to the memory manager, where it waits in the input;
3. the flow is swapped in while that event still waits;
4. the channel frees, the memory manager finds the flow gone and hands
   the event back (``return_event``); the scheduler routes it again.

The second send's ``req`` pointer must reach the FPC's TCB and be
acknowledged, no flow may be left MOVING, and the invariant monitor
must stay clean.  Dropping the hand-back loses the pointer for good.
"""

from repro.engine.ftengine import FtEngineConfig
from repro.engine.scheduler import Location
from repro.engine.testbed import Testbed
from repro.engine.verification import InvariantMonitor
from repro.tcp.state_machine import TcpState

FLOWS = 72  # on 4 x 16 TCB slots: 8 live in DRAM


def test_an_event_queued_across_its_swap_in_reaches_the_fpc():
    config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
    tb = Testbed(config_a=config, config_b=config)
    a, b = tb.engine_a, tb.engine_b
    monitors = [InvariantMonitor(a), InvariantMonitor(b)]
    b.listen(80)
    flows = [a.connect(b.ip, 80) for _ in range(FLOWS)]
    assert tb.run(
        until=lambda: all(a.flow_state(f) is TcpState.ESTABLISHED for f in flows),
        max_time_s=tb.now_s + 5.0,
    )
    scheduler, manager = a.scheduler, a.memory_manager
    flow = next(f for f in flows if scheduler.location_of(f) is Location.DRAM)
    returned = []
    hand_back = manager.return_event
    manager.return_event = lambda event: (returned.append(event), hand_back(event))

    # 1. Its first send makes the check logic ask for a swap-in.
    a.send_data(flow, b"x" * 100)
    assert tb.run(
        until=lambda: flow in manager.swap_in_requests, max_time_s=tb.now_s + 1e-3
    )
    # 2. The channel is held, so the second send's event waits in the
    #    memory manager's input; 3. the swap-in completes meanwhile.
    a.dram.transfer(10_000_000, a.time_ps)
    a.send_data(flow, b"y" * 100)
    pointer = a.flows[flow].stream.end_seq
    assert tb.run(
        until=lambda: scheduler.location_of(flow) is Location.FPC,
        max_time_s=tb.now_s + 1e-3,
    )
    assert [event.flow_id for event in manager.input] == [flow]
    assert manager.dram.busy_until_ps > a.time_ps
    assert not returned

    # 4. Handed back, routed to the FPC, processed and acknowledged.
    assert tb.run(
        until=lambda: a.tcb_of(flow).snd_una == pointer, max_time_s=tb.now_s + 1e-2
    )
    assert [event.flow_id for event in returned] == [flow]
    assert a.tcb_of(flow).req == pointer
    for engine in (a, b):
        assert all(
            engine.scheduler.location_of(f) is not Location.MOVING
            for f in engine.flows
        )
    assert [monitor.check() for monitor in monitors] == [[], []]
