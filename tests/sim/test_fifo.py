"""Bounded FIFO semantics of a block's input: ordering, backpressure.

Each engine block holds its input as a deque bounded by the block's
``depth``; these cases pin that discipline at the FPC's ``offer_event``.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.baseline import NullFpu
from repro.engine.events import user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.tcp.state_machine import TcpState

from .._records import make_tcb


def make_fpc(depth):
    fpc = FlowProcessingCore(0, slots=2, fpu=NullFpu(14))
    fpc.depth = depth
    fpc.accept_tcb(make_tcb(flow_id=0, state=TcpState.ESTABLISHED))
    return fpc


def offer(fpc, pointer):
    return fpc.offer_event(user_send_event(0, pointer, 0))


def tick_once(fpc):
    """One tick; the pointer of the event it handed on, or None."""
    head = fpc.input[0].req if fpc.input else None
    before = len(fpc.input)
    fpc.tick()
    fpc.drain_results()
    return head if len(fpc.input) < before else None


def hand_on_all(fpc, max_ticks=1000):
    handled = []
    for _ in range(max_ticks):
        if not fpc.input:
            break
        pointer = tick_once(fpc)
        if pointer is not None:
            handled.append(pointer)
    assert not fpc.input, "the input did not drain"
    return handled


class TestFifoBasics:
    def test_fifo_order(self):
        fpc = make_fpc(depth=4)
        for pointer in (1, 2, 3):
            assert offer(fpc, pointer)
        assert hand_on_all(fpc) == [1, 2, 3]

    def test_full_and_empty_flags(self):
        fpc = make_fpc(depth=1)
        assert len(fpc.input) == 0 and not fpc.backpressure
        assert offer(fpc, 1)
        assert fpc.backpressure and len(fpc.input) == 1
        assert not offer(fpc, 2)


class TestFifoProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=10))
    def test_accepted_items_come_out_in_order(self, count, capacity):
        fpc = make_fpc(depth=capacity)
        pointers = list(range(1, count + 1))
        accepted = [pointer for pointer in pointers if offer(fpc, pointer)]
        assert accepted == pointers[:capacity]
        assert hand_on_all(fpc) == accepted

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, operations):
        """Offered (True) or ticked (False) in any order, the input
        holds at most ``depth`` events, and what it accepted it hands
        to the event handler in order."""
        fpc = make_fpc(depth=5)
        accepted, handled = [], []
        for pointer, is_offer in enumerate(operations, 1):
            if is_offer:
                if offer(fpc, pointer):
                    accepted.append(pointer)
            else:
                head = tick_once(fpc)
                if head is not None:
                    handled.append(head)
            assert 0 <= len(fpc.input) <= 5
        assert handled == accepted[: len(handled)]
