"""Out-of-order reassembly: the RX data path's logical merging (§4.1.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.seq import SEQ_MOD, seq_add

from ._reassembly_oracle import OracleReassemblyBuffer


class TestInOrder:
    def test_in_order_delivery(self):
        buffer = ReassemblyBuffer(rcv_nxt=100, window=1000)
        assert buffer.offer(100, b"hello") == 5
        assert buffer.rcv_nxt == 105
        assert buffer.read(buffer.readable) == b"hello"

    def test_partial_read(self):
        buffer = ReassemblyBuffer(0, 1000)
        buffer.offer(0, b"abcdef")
        assert buffer.read(2) == b"ab"
        assert buffer.read(100) == b"cdef"

    def test_read_negative_raises(self):
        with pytest.raises(ValueError):
            ReassemblyBuffer(0, 10).read(-1)

    def test_empty_payload_is_noop(self):
        buffer = ReassemblyBuffer(0, 10)
        assert buffer.offer(0, b"") == 0


class TestOutOfOrder:
    def test_gap_holds_back_delivery(self):
        buffer = ReassemblyBuffer(0, 1000)
        buffer.offer(5, b"world")
        assert buffer.readable == 0
        assert buffer.out_of_order_chunks == 1
        buffer.offer(0, b"hello")
        assert buffer.read(buffer.readable) == b"helloworld"
        assert buffer.out_of_order_chunks == 0

    def test_adjacent_chunks_merge(self):
        """The parser 'merges the received data into its adjacent data
        chunks' (§4.1.2) — chunk count stays small."""
        buffer = ReassemblyBuffer(0, 10_000)
        buffer.offer(100, b"b" * 100)
        buffer.offer(200, b"c" * 100)
        assert buffer.out_of_order_chunks == 1
        buffer.offer(0, b"a" * 100)
        assert buffer.readable == 300

    def test_chunk_boundaries_sorted(self):
        buffer = ReassemblyBuffer(0, 10_000)
        buffer.offer(500, b"x" * 10)
        buffer.offer(100, b"y" * 10)
        assert buffer.chunk_boundaries() == [(100, 110), (500, 510)]

    def test_duplicate_data_trimmed(self):
        buffer = ReassemblyBuffer(0, 1000)
        buffer.offer(0, b"abcdef")
        assert buffer.offer(0, b"abcdef") == 0  # full duplicate
        assert buffer.duplicates_trimmed >= 6

    def test_overlapping_retransmission(self):
        buffer = ReassemblyBuffer(0, 1000)
        buffer.offer(0, b"abcd")
        assert buffer.offer(2, b"cdef") == 2  # only 'ef' is new
        assert buffer.read(buffer.readable) == b"abcdef"

    def test_overlapping_ooo_chunks(self):
        buffer = ReassemblyBuffer(0, 1000)
        buffer.offer(10, b"klmno")
        buffer.offer(12, b"mnopq")
        buffer.offer(0, b"abcdefghij")
        assert buffer.read(buffer.readable) == b"abcdefghijklmnopq"


class TestWindowEnforcement:
    def test_data_beyond_window_dropped(self):
        """The parser drops what does not fit the window (§4.1.2)."""
        buffer = ReassemblyBuffer(0, 10)
        assert buffer.offer(20, b"zz") == 0
        assert buffer.bytes_dropped == 2

    def test_data_straddling_window_clipped(self):
        buffer = ReassemblyBuffer(0, 5)
        assert buffer.offer(0, b"abcdefgh") == 5
        assert buffer.read(buffer.readable) == b"abcde"
        assert buffer.bytes_dropped == 3

    def test_window_follows_consumption(self):
        """The window slides only as the application reads: unread
        bytes occupy the buffer and block further acceptance."""
        buffer = ReassemblyBuffer(0, 10)
        buffer.offer(0, b"0123456789")
        assert buffer.effective_window == 0  # full of unread data
        assert buffer.offer(10, b"abcde") == 0  # enforced, not advisory
        assert buffer.read(10) == b"0123456789"
        assert buffer.effective_window == 10
        assert buffer.offer(10, b"abcde") == 5
        assert buffer.read(buffer.readable) == b"abcde"


class TestWraparound:
    def test_delivery_across_seq_wrap(self):
        start = SEQ_MOD - 4
        buffer = ReassemblyBuffer(start, 1000)
        buffer.offer(start, b"abcd")  # ends exactly at the wrap
        buffer.offer(0, b"efgh")
        assert buffer.rcv_nxt == 4
        assert buffer.read(buffer.readable) == b"abcdefgh"

    def test_ooo_across_wrap(self):
        start = SEQ_MOD - 2
        buffer = ReassemblyBuffer(start, 1000)
        buffer.offer(2, b"late")  # past the wrap, out of order
        assert buffer.readable == 0
        buffer.offer(start, b"abcd")
        assert buffer.read(buffer.readable) == b"abcdlate"


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=600),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.sampled_from([0, 1000, SEQ_MOD - 200]),
    )
    def test_any_arrival_order_reconstructs_stream(self, data, seed, start):
        """Invariant 4 of DESIGN.md: for any fragmentation, order and
        duplication, the delivered stream equals the sent stream."""
        rng = random.Random(seed)
        # Fragment into random chunks.
        chunks = []
        offset = 0
        while offset < len(data):
            size = rng.randint(1, 80)
            chunks.append((offset, data[offset : offset + size]))
            offset += size
        # Duplicate some chunks, then shuffle.
        chunks += [chunks[rng.randrange(len(chunks))] for _ in range(len(chunks) // 3)]
        rng.shuffle(chunks)

        buffer = ReassemblyBuffer(start, window=1 << 20)
        for offset, chunk in chunks:
            buffer.offer(seq_add(start, offset), chunk)
        assert buffer.read(buffer.readable) == data
        assert buffer.out_of_order_chunks == 0

    @settings(max_examples=40, deadline=None)
    @given(
        offers=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.binary(min_size=1, max_size=50),
            ),
            max_size=40,
        )
    )
    def test_accounting_invariants(self, offers):
        buffer = ReassemblyBuffer(0, window=256)
        for seq, payload in offers:
            buffer.offer(seq, payload)
            # Buffered out-of-order bytes never exceed the window.
            assert sum(e - s for s, e in buffer.chunk_boundaries()) <= 256
            # Chunks are disjoint and none starts at/before rcv_nxt.
            boundaries = buffer.chunk_boundaries()
            for (s1, e1), (s2, e2) in zip(boundaries, boundaries[1:]):
                assert e1 < s2 or (e1 - s2) % SEQ_MOD > 0


# The new-byte count of a segment that extends or overlaps a held chunk,
# on the buffer and on its oracle alike.
@pytest.mark.parametrize("make", [ReassemblyBuffer, OracleReassemblyBuffer])
def test_extending_a_held_chunk_counts_every_new_byte(make):
    buffer = make(0, 1000)
    assert buffer.offer(10, b"a" * 100) == 100
    assert buffer.offer(110, b"b" * 50) == 50
    assert buffer.bytes_accepted == 150


@pytest.mark.parametrize("make", [ReassemblyBuffer, OracleReassemblyBuffer])
def test_overlapping_a_held_chunk_counts_only_the_new_bytes(make):
    buffer = make(0, 1000)
    assert buffer.offer(10, b"a" * 100) == 100
    assert buffer.offer(50, b"a" * 100) == 40  # [110, 150) is new
    assert buffer.offer(0, b"a" * 30) == 10  # [0, 10) is new
    assert buffer.bytes_accepted == 150
    assert buffer.read(buffer.readable) == b"a" * 150
