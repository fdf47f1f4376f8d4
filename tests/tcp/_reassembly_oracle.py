"""The retired copy-per-offer reassembly, kept as the linear one's oracle.

Until the RX path's reassembly copied each byte about once,
``ReassemblyBuffer.offer`` sent every admitted segment through one merge:
it rebuilt the union of the segment and every held chunk it overlapped
or touched, stored it as ``bytes``, and then moved the chunk at
``rcv_nxt`` (if any) into the ready stream.  A segment that extended a
held chunk at its end copied the whole chunk twice, and an in-order
segment with nothing held went through the chunk dict too.  That path
lives on here, on a subclass, so the buffer can be held against it
offer by offer (``test_reassembly_oracle.py``).
"""

from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.seq import seq_add, seq_in_window, seq_lt, seq_sub


class OracleReassemblyBuffer(ReassemblyBuffer):
    """:class:`ReassemblyBuffer` with the retired offer path."""

    def offer(self, seq: int, payload: bytes) -> int:
        if not payload:
            return 0
        behind = seq_sub(self.rcv_nxt, seq)
        if behind > 0:
            if behind >= len(payload):
                self.duplicates_trimmed += len(payload)
                return 0
            self.duplicates_trimmed += behind
            payload = payload[behind:]
            seq = self.rcv_nxt
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
        admitted = self._insert_chunk(seq, payload)
        self._promote_in_order()
        return admitted

    def _insert_chunk(self, seq: int, payload: bytes) -> int:
        """Merge ``payload`` into the chunk set, deduplicating overlaps."""
        start, end = seq, seq_add(seq, len(payload))
        merged = bytearray(payload)
        new_bytes = len(payload)
        for other_start in list(self._chunks):
            other = self._chunks[other_start]
            other_end = seq_add(other_start, len(other))
            if seq_lt(end, other_start) or seq_lt(other_end, start):
                continue
            del self._chunks[other_start]
            union_start = other_start if seq_lt(other_start, start) else start
            low = other_start if seq_lt(start, other_start) else start
            high = other_end if seq_lt(other_end, end) else end
            new_bytes -= max(0, seq_sub(high, low))
            union = bytearray()
            if seq_lt(other_start, start):
                union += other[: seq_sub(start, other_start)]
                union += merged
                tail_from = seq_sub(end, other_start)
                if tail_from < len(other):
                    union += other[tail_from:]
            else:
                union += merged[: seq_sub(other_start, start)]
                union += other
                tail_from = seq_sub(other_end, start)
                if tail_from < len(merged):
                    union += merged[tail_from:]
            merged = union
            start = union_start
            end = seq_add(start, len(merged))
        self._chunks[start] = bytes(merged)
        self.bytes_accepted += new_bytes
        return new_bytes

    def _promote_in_order(self) -> None:
        """Move the chunk at ``rcv_nxt`` (if any) into the ready stream."""
        while self.rcv_nxt in self._chunks:
            chunk = self._chunks.pop(self.rcv_nxt)
            self._ready += chunk
            self.rcv_nxt = seq_add(self.rcv_nxt, len(chunk))
