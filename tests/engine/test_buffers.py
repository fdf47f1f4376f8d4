"""SendStream: the sequence-addressed send buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.buffers import SendStream
from repro.tcp.seq import SEQ_MOD, seq_add


class TestSendStream:
    def test_append_returns_request_pointer(self):
        stream = SendStream(base_seq=1000, capacity=100)
        assert stream.append(b"abc") == 1003
        assert stream.append(b"de") == 1005
        assert stream.end_seq == 1005

    def test_fetch_by_sequence(self):
        stream = SendStream(base_seq=1000, capacity=100)
        stream.append(b"abcdef")
        assert stream.fetch(1002, 3) == b"cde"

    def test_fetch_out_of_range(self):
        stream = SendStream(base_seq=1000, capacity=100)
        stream.append(b"abc")
        with pytest.raises(IndexError):
            stream.fetch(999, 1)
        with pytest.raises(IndexError):
            stream.fetch(1002, 5)

    def test_release_frees_acked_prefix(self):
        stream = SendStream(base_seq=1000, capacity=10)
        stream.append(b"abcdefgh")
        assert stream.release(1004) == 4
        assert stream.base_seq == 1004
        assert stream.room == 6
        assert stream.fetch(1004, 2) == b"ef"

    def test_release_is_idempotent(self):
        stream = SendStream(base_seq=1000, capacity=10)
        stream.append(b"abcd")
        stream.release(1002)
        assert stream.release(1002) == 0
        assert stream.release(1000) == 0  # old ACK

    def test_release_beyond_buffered_is_clamped(self):
        stream = SendStream(base_seq=1000, capacity=10)
        stream.append(b"ab")
        assert stream.release(1999) == 2

    def test_overflow_raises(self):
        stream = SendStream(base_seq=0, capacity=4)
        with pytest.raises(BufferError):
            stream.append(b"abcde")

    def test_retransmission_data_retained_until_acked(self):
        """Unacked bytes must stay fetchable — they may be resent."""
        stream = SendStream(base_seq=0, capacity=100)
        stream.append(b"0123456789")
        stream.release(3)
        assert stream.fetch(3, 7) == b"3456789"

    def test_wraparound(self):
        start = SEQ_MOD - 3
        stream = SendStream(base_seq=start, capacity=100)
        assert stream.append(b"abcdef") == 3  # wrapped pointer
        assert stream.fetch(seq_add(start, 4), 2) == b"ef"
        stream.release(1)  # ack past the wrap
        assert stream.base_seq == 1
        assert stream.fetch(1, 2) == b"ef"

    @given(
        chunks=st.lists(st.binary(min_size=1, max_size=20), max_size=20),
        start=st.sampled_from([0, 12345, SEQ_MOD - 50]),
    )
    def test_stream_content_matches_concatenation(self, chunks, start):
        stream = SendStream(base_seq=start, capacity=1 << 16)
        for chunk in chunks:
            stream.append(chunk)
        joined = b"".join(chunks)
        if joined:
            assert stream.fetch(start, len(joined)) == joined
        assert stream.capacity - stream.room == len(joined)
