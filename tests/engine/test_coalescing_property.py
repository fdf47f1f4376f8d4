"""Invariant 8 (DESIGN.md): coalescing is lossless.

Processing a random event stream through the scheduler with coalescing
ON must leave every flow's TCB in exactly the state it reaches with
coalescing OFF — fewer events reach the FPC, but no information is lost
(§4.4.1).
"""

from hypothesis import given, settings, strategies as st

from repro.engine.baseline import NullFpu
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.engine.memory_manager import MemoryManager
from repro.engine.scheduler import Scheduler
from repro.sim.memory import DRAMModel
from repro.tcp.state_machine import TcpState

from .._records import make_tcb

FLOWS = 4

# A stream of (flow, kind, amount): send-pointer advances, window
# updates, and duplicate ACKs (the non-coalescible case).
event_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FLOWS - 1),
        st.sampled_from(["send", "wnd", "dup"]),
        st.integers(min_value=1, max_value=5000),
    ),
    min_size=1,
    max_size=60,
)


def run_system(script, coalescing: bool):
    fpcs = [FlowProcessingCore(0, slots=FLOWS, fpu=NullFpu(6))]
    scheduler = Scheduler(fpcs, MemoryManager(DRAMModel.hbm()), coalescing=coalescing)
    pointers = [0] * FLOWS
    for flow_id in range(FLOWS):
        scheduler.register_new_flow(make_tcb(flow_id=flow_id, state=TcpState.ESTABLISHED))

    backlog = []
    for flow_id, kind, amount in script:
        if kind == "send":
            pointers[flow_id] += amount
            event = user_send_event(flow_id, pointers[flow_id], 0)
        elif kind == "wnd":
            event = TcpEvent(EventKind.RX_PACKET, flow_id, wnd=amount)
        else:
            event = TcpEvent(
                EventKind.RX_PACKET, flow_id, dup_incr=1, coalescible=False
            )
        backlog.append(event)
        # Submit with backpressure retry, interleaved with ticks.
        while backlog:
            if scheduler.submit(backlog[0]):
                backlog.pop(0)
            else:
                scheduler.tick()
                for fpc in fpcs:
                    fpc.tick()
                    fpc.drain_results()
    for _ in range(600):
        scheduler.tick()
        for fpc in fpcs:
            fpc.tick()
            fpc.drain_results()

    state = {}
    for flow_id in range(FLOWS):
        tcb = fpcs[0].peek_tcb(flow_id)
        state[flow_id] = (tcb.req, tcb.snd_wnd, tcb.dupacks)
    return state, scheduler


class TestCoalescingLosslessness:
    @settings(max_examples=40, deadline=None)
    @given(event_stream)
    def test_final_state_identical_with_and_without_coalescing(self, script):
        with_c, scheduler_c = run_system(script, coalescing=True)
        without_c, _ = run_system(script, coalescing=False)
        assert with_c == without_c

    @settings(max_examples=20, deadline=None)
    @given(event_stream)
    def test_coalescing_never_inflates_event_count(self, script):
        _, scheduler_c = run_system(script, coalescing=True)
        _, scheduler_n = run_system(script, coalescing=False)
        assert scheduler_c.events_routed <= scheduler_n.events_routed
