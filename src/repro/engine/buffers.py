"""TCP data buffers: the hugepage-backed byte stores the engine DMAs.

The F4T runtime allocates TCP data buffers in hugepages (§4.1.1); the
library writes send data there and the packet generator fetches it by
sequence pointer, appending it to headers without any processing
(§4.1.2 ❷).  :class:`SendStream` models one flow's send buffer addressed
by absolute sequence numbers, retaining bytes until they are ACKed (they
may be needed for retransmission).
"""

from __future__ import annotations

from ..tcp.seq import seq_add, seq_sub


class SendStream:
    """A flow's outgoing byte stream addressed in sequence space."""

    __slots__ = ("base_seq", "capacity", "_data", "bytes_appended", "bytes_released")

    def __init__(self, base_seq: int, capacity: int) -> None:
        #: Sequence number of ``self._data[0]``.
        self.base_seq = base_seq
        self.capacity = capacity
        self._data = bytearray()
        self.bytes_appended = 0
        self.bytes_released = 0

    @property
    def end_seq(self) -> int:
        """One past the last buffered byte — the app's ``req`` pointer."""
        return seq_add(self.base_seq, len(self._data))

    @property
    def room(self) -> int:
        return self.capacity - len(self._data)

    def append(self, data: bytes) -> int:
        """Store outgoing bytes; returns the new request pointer.

        The library blocks (or returns EAGAIN) before overflowing, so
        appending beyond capacity is a caller bug.
        """
        if len(data) > self.room:
            raise BufferError(
                f"send buffer overflow: {len(data)} B offered, {self.room} B free"
            )
        self._data += data
        self.bytes_appended += len(data)
        return self.end_seq

    def fetch(self, seq: int, length: int) -> bytes:
        """DMA read for the packet generator: bytes [seq, seq+length)."""
        offset = seq_sub(seq, self.base_seq)
        if offset < 0 or offset + length > len(self._data):
            raise IndexError(
                f"fetch [{seq}, +{length}) outside buffered "
                f"[{self.base_seq}, {self.end_seq})"
            )
        return bytes(self._data[offset : offset + length])

    def release(self, upto_seq: int) -> int:
        """Free acknowledged bytes below ``upto_seq``; returns count freed."""
        advance = seq_sub(upto_seq, self.base_seq)
        if advance <= 0:
            return 0
        advance = min(advance, len(self._data))
        del self._data[:advance]
        self.base_seq = seq_add(self.base_seq, advance)
        self.bytes_released += advance
        return advance
