"""Out-of-order reassembly: logical merging of received data chunks.

The RX parser DMAs any payload that fits the receive window straight to
the TCP data buffer — in order or not — and notifies the application only
once the data is contiguous.  Reassembly is *logical*: the parser stores
out-of-sequence chunk boundaries and merges adjacent chunks without
moving payload bytes (§4.1.2).  We keep the actual bytes too so
end-to-end tests can verify stream integrity, and copy each admitted
byte about once: an in-order segment is appended to the ready stream,
a segment that extends a held chunk at its end is appended to that
chunk, and a held chunk is copied again only when a hole-filling
segment joins it to others or moves it to the ready stream.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .seq import SEQ_MOD, seq_add, seq_in_window, seq_lt, seq_sub


class ReassemblyBuffer:
    """Receive-side chunk store delivering a strictly in-order byte stream.

    ``rcv_nxt`` is the next expected sequence number; ``window`` bounds
    how far ahead of it data is accepted (the advertised receive window).

    What :meth:`offer` copies: a segment that reaches no held chunk is
    copied once, onto the ready stream when it starts at ``rcv_nxt`` and
    into a new chunk otherwise; one that starts where a held chunk ends
    and reaches no other is appended to that chunk, so a loss episode's
    tail costs its own bytes.  Any other segment goes through
    :meth:`_merge`, which rebuilds the union of the segment and each
    chunk it reaches, and appends the union to the ready stream when it
    starts at ``rcv_nxt``.  :meth:`read` copies what it returns once.
    """

    __slots__ = (
        "rcv_nxt", "window", "_chunks", "_ready", "bytes_accepted",
        "bytes_dropped", "duplicates_trimmed",
    )

    def __init__(self, rcv_nxt: int, window: int) -> None:
        self.rcv_nxt = rcv_nxt
        self.window = window
        # Out-of-order chunks: start seq -> payload bytes.  Invariant:
        # chunks are disjoint, none starts at or before rcv_nxt, and
        # adjacent chunks are merged eagerly.  A chunk is a bytearray
        # the buffer owns, so a segment that extends it is appended.
        self._chunks: Dict[int, bytearray] = {}
        self._ready = bytearray()
        self.bytes_accepted = 0
        self.bytes_dropped = 0
        self.duplicates_trimmed = 0

    # -------------------------------------------------------------- stats
    @property
    def out_of_order_chunks(self) -> int:
        return len(self._chunks)

    def chunk_boundaries(self) -> List[Tuple[int, int]]:
        """The stored (start, end) chunk intervals, sorted by stream order."""
        spans = [(s, seq_add(s, len(p))) for s, p in self._chunks.items()]
        spans.sort(key=lambda span: seq_sub(span[0], self.rcv_nxt))
        return spans

    @property
    def effective_window(self) -> int:
        """Buffer room actually available: capacity minus in-order data
        the application has not consumed yet.

        The data buffer is finite; bytes delivered but unread still
        occupy it, so the acceptance window shrinks with them — this is
        what makes the advertised zero window *enforced*, not advisory.
        """
        return max(0, self.window - len(self._ready))

    # -------------------------------------------------------------- input
    def offer(self, seq: int, payload: bytes) -> int:
        """Accept ``payload`` starting at ``seq``.

        Returns the number of *new* bytes admitted.  Data outside the
        window is dropped (the parser drops what does not fit, §4.1.2);
        data preceding ``rcv_nxt`` is trimmed as duplicate.
        """
        if not payload:
            return 0
        # Trim the already-delivered prefix.
        behind = seq_sub(self.rcv_nxt, seq)
        if behind > 0:
            if behind >= len(payload):
                self.duplicates_trimmed += len(payload)
                return 0
            self.duplicates_trimmed += behind
            payload = payload[behind:]
            seq = self.rcv_nxt
        # Drop what exceeds the window.
        window = self.effective_window
        if not seq_in_window(seq, self.rcv_nxt, window):
            self.bytes_dropped += len(payload)
            return 0
        room = window - seq_sub(seq, self.rcv_nxt)
        if len(payload) > room:
            self.bytes_dropped += len(payload) - room
            payload = payload[:room]
        if not payload:
            return 0
        size = len(payload)
        end = seq_add(seq, size)
        chunks = self._chunks
        held = None
        if chunks:
            # The held chunks the segment overlaps or touches.
            reached = [
                start for start, chunk in chunks.items()
                if not (seq_lt(end, start) or seq_lt(seq_add(start, len(chunk)), seq))
            ]
            if reached:
                held = reached[0]
                if len(reached) > 1 or seq_add(held, len(chunks[held])) != seq:
                    return self._merge(seq, payload)
        if held is not None:
            # The segment extends one held chunk at its end: append it
            # in place.
            chunks[held] += payload
        elif seq == self.rcv_nxt:
            self._ready += payload
            self.rcv_nxt = end
        else:
            chunks[seq] = bytearray(payload)
        self.bytes_accepted += size
        return size

    def _merge(self, seq: int, payload: bytes) -> int:
        """Merge ``payload`` with the held chunks it overlaps or touches,
        deduplicating, and deliver the union if it starts at rcv_nxt."""
        start, end = seq, seq_add(seq, len(payload))
        merged = bytearray(payload)
        new_bytes = len(payload)
        chunks = self._chunks
        for other_start in list(chunks):
            other = chunks[other_start]
            other_end = seq_add(other_start, len(other))
            # Skip chunks that neither overlap nor touch [start, end).
            if seq_lt(end, other_start) or seq_lt(other_end, start):
                continue
            del chunks[other_start]
            # The union takes the segment's bytes over a chunk that
            # starts before it and a chunk's over the segment otherwise
            # (retransmissions carry identical data, so either is right).
            union_start = other_start if seq_lt(other_start, start) else start
            # The chunks are disjoint, so this one meets the union only
            # where it meets the segment: those bytes are not new.
            low = other_start if seq_lt(start, other_start) else start
            high = other_end if seq_lt(other_end, end) else end
            new_bytes -= max(0, seq_sub(high, low))
            if seq_lt(other_start, start):
                union = other[: seq_sub(start, other_start)]
                union += merged
                tail_from = seq_sub(end, other_start)
                if tail_from < len(other):
                    union += other[tail_from:]
            else:
                union = merged[: seq_sub(other_start, start)]
                union += other
                tail_from = seq_sub(other_end, start)
                if tail_from < len(merged):
                    union += merged[tail_from:]
            merged = union
            start = union_start
            end = seq_add(start, len(merged))
        if start == self.rcv_nxt:
            self._ready += merged
            self.rcv_nxt = end
        else:
            chunks[start] = merged
        self.bytes_accepted += new_bytes
        return new_bytes

    # ------------------------------------------------------------- output
    @property
    def readable(self) -> int:
        """Bytes ready for in-order delivery to the application."""
        return len(self._ready)

    def read(self, nbytes: int) -> bytes:
        """Consume up to ``nbytes`` of in-order data."""
        if nbytes < 0:
            raise ValueError("read size must be non-negative")
        # One copy; the views die with the expression, before the del.
        data = memoryview(self._ready)[:nbytes].tobytes()
        del self._ready[:nbytes]
        return data


__all__ = ["ReassemblyBuffer", "SEQ_MOD"]
