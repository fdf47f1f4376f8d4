"""Bounded FIFO semantics: ordering, backpressure, statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.fifo import Fifo


class TestFifoBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Fifo(0)

    def test_fifo_order(self):
        fifo = Fifo(4)
        for value in (1, 2, 3):
            assert fifo.push(value)
        assert [fifo.pop(), fifo.pop(), fifo.pop()] == [1, 2, 3]

    def test_push_full_returns_false_and_keeps_contents(self):
        fifo = Fifo(2)
        assert fifo.push("a") and fifo.push("b")
        assert not fifo.push("c")
        assert fifo.rejects == 1
        assert list(fifo) == ["a", "b"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Fifo(1).pop()

    def test_peek_does_not_consume(self):
        fifo = Fifo(2)
        fifo.push(7)
        assert next(iter(fifo)) == 7  # iteration starts at the head
        assert len(fifo) == 1

    def test_try_pop(self):
        fifo = Fifo(2)
        assert fifo.try_pop() is None
        fifo.push(5)
        assert fifo.try_pop() == 5

    def test_full_and_empty_flags(self):
        fifo = Fifo(1)
        assert len(fifo) == 0 and not fifo.full
        fifo.push(0)
        assert fifo.full and len(fifo) == 1


class TestFifoProperties:
    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=10))
    def test_accepted_items_come_out_in_order(self, items, capacity):
        fifo = Fifo(capacity)
        accepted = [item for item in items if fifo.push(item)]
        assert accepted == items[:capacity]
        assert [fifo.pop() for _ in accepted] == accepted

    @given(st.lists(st.booleans(), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, operations):
        fifo = Fifo(5)
        for is_push in operations:
            if is_push:
                fifo.push(0)
            else:
                fifo.try_pop()
            assert 0 <= len(fifo) <= 5
