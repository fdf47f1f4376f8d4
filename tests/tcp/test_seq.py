"""Sequence arithmetic across the 2^32 wrap."""

from hypothesis import given, strategies as st

from repro.tcp.seq import (
    SEQ_MOD,
    seq_add,
    seq_ge,
    seq_gt,
    seq_in_window,
    seq_le,
    seq_lt,
    seq_max,
    seq_sub,
)

seqs = st.integers(min_value=0, max_value=SEQ_MOD - 1)
small = st.integers(min_value=0, max_value=(1 << 30) - 1)


class TestBasics:
    def test_add_wraps(self):
        assert seq_add(SEQ_MOD - 1, 1) == 0
        assert seq_add(SEQ_MOD - 10, 25) == 15

    def test_add_negative_delta(self):
        assert seq_add(5, -10) == SEQ_MOD - 5

    def test_sub_signed_distance(self):
        assert seq_sub(100, 50) == 50
        assert seq_sub(50, 100) == -50

    def test_sub_across_wrap(self):
        near_top = SEQ_MOD - 5
        assert seq_sub(3, near_top) == 8
        assert seq_sub(near_top, 3) == -8

    def test_comparisons_across_wrap(self):
        assert seq_lt(SEQ_MOD - 1, 5)
        assert seq_gt(5, SEQ_MOD - 1)
        assert seq_le(7, 7) and seq_ge(7, 7)

    def test_min_max(self):
        assert seq_max(SEQ_MOD - 1, 5) == 5

    def test_window_membership(self):
        assert seq_in_window(105, 100, 10)
        assert not seq_in_window(110, 100, 10)  # end-exclusive
        assert seq_in_window(2, SEQ_MOD - 5, 10)  # wrapped window
        assert not seq_in_window(50, 100, 0)  # empty window


class TestProperties:
    @given(seqs, small)
    def test_add_then_sub_roundtrip(self, seq, delta):
        assert seq_sub(seq_add(seq, delta), seq) == delta

    @given(seqs, small)
    def test_ordering_consistent_with_distance(self, seq, delta):
        ahead = seq_add(seq, delta)
        if delta == 0:
            assert seq_le(seq, ahead) and seq_ge(seq, ahead)
        else:
            assert seq_lt(seq, ahead)
            assert seq_gt(ahead, seq)

    @given(seqs, seqs)
    def test_trichotomy(self, a, b):
        assert seq_lt(a, b) + seq_gt(a, b) + (seq_sub(a, b) == 0) == 1 or (
            # the exact antipode (distance 2^31) compares as "a > b"
            abs(seq_sub(a, b)) == 1 << 31
        )

    @given(seqs, seqs)
    def test_max_min_partition(self, a, b):
        assert seq_max(a, b) in {a, b}
        assert seq_max(a, b) == seq_max(b, a) or abs(seq_sub(a, b)) == 1 << 31

    @given(seqs, st.integers(min_value=1, max_value=1 << 20), st.integers(min_value=0, max_value=(1 << 20) - 1))
    def test_window_contains_its_interior(self, start, length, offset):
        if offset < length:
            assert seq_in_window(seq_add(start, offset), start, length)

    @given(seqs, st.integers(min_value=1, max_value=1 << 20))
    def test_window_excludes_its_end(self, start, length):
        assert not seq_in_window(seq_add(start, length), start, length)


def _by_definition(a: int, b: int) -> tuple:
    """Each ordered helper as the sign of ``seq_sub``, its definition."""
    d = seq_sub(a, b)
    return d < 0, d <= 0, d > 0, d >= 0, a if d >= 0 else b


def _flat(a: int, b: int) -> tuple:
    return seq_lt(a, b), seq_le(a, b), seq_gt(a, b), seq_ge(a, b), seq_max(a, b)


class TestFlatHelpersEqualTheirDefinitions:
    """``seq_lt/le/gt/ge/max`` read the unsigned distance directly; they
    must agree with ``seq_sub``'s sign everywhere, the antipode too."""

    @given(seqs, seqs)
    def test_every_pair(self, a, b):
        assert _flat(a, b) == _by_definition(a, b)

    @given(seqs)
    def test_edge_distances(self, b):
        for distance in (0, 1, (1 << 31) - 1, 1 << 31, SEQ_MOD - 1):
            a = seq_add(b, distance)
            assert _flat(a, b) == _by_definition(a, b), distance
            assert _flat(b, a) == _by_definition(b, a), distance

    def test_antipode_compares_as_ahead_both_ways(self):
        a, b = 1 << 31, 0
        assert _flat(a, b) == (False, False, True, True, a)
        assert _flat(b, a) == (False, False, True, True, b)
