"""Per-thread command queues and doorbells (§4.1.1, §4.6).

The F4T runtime allocates command queues of depth 1024 on hugepages —
one pair per application thread, shared with no other thread, so the
software stack scales without locks.  The library rings the hardware
doorbell via MMIO after writing commands (batched, §4.6); FtEngine
writes the software doorbell in the DMA buffer and the library polls it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .commands import Command

QUEUE_DEPTH = 1024


class CommandQueue:
    """A single-producer single-consumer ring of encoded commands.

    ``simplified`` switches to the 8 B command layout of the §6 scaling
    experiment, halving the PCIe bytes per command.
    """

    def __init__(
        self, depth: int = QUEUE_DEPTH, name: str = "cq", simplified: bool = False
    ) -> None:
        self.depth = depth
        self.name = name
        self.simplified = simplified
        self._ring: Deque[bytes] = deque()
        #: Producer-side doorbell value (entries made visible).
        self.doorbell = 0
        self.enqueued = 0
        self.dequeued = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.depth

    def push(self, command: Command) -> bool:
        """Write one encoded command; False when the ring is full."""
        if self.full:
            self.full_stalls += 1
            return False
        encoded = (
            command.encode_simplified() if self.simplified else command.encode()
        )
        self._ring.append(encoded)
        self.enqueued += 1
        return True

    def ring_doorbell(self) -> int:
        """Publish everything written so far; returns the doorbell value.

        The library batches MMIO writes: many pushes, one doorbell (§4.6).
        """
        self.doorbell = self.enqueued
        return self.doorbell

    def pop_batch(self, limit: int = QUEUE_DEPTH) -> List[Command]:
        """Consumer side: read up to ``limit`` published commands.

        FtEngine reads multiple commands from each queue at once (§5.1),
        which is why bulk events of the same flow arrive consecutively.
        """
        batch: List[Command] = []
        decode = Command.decode_simplified if self.simplified else Command.decode
        visible = self.doorbell - self.dequeued
        while self._ring and len(batch) < min(limit, visible):
            batch.append(decode(self._ring.popleft()))
            self.dequeued += 1
        return batch


class QueuePair:
    """One thread's submission + completion queues (§4.6: per-thread)."""

    def __init__(
        self, thread_id: int, depth: int = QUEUE_DEPTH, simplified: bool = False
    ) -> None:
        self.thread_id = thread_id
        self.simplified = simplified
        self.submission = CommandQueue(depth, f"sq{thread_id}", simplified)
        self.completion = CommandQueue(depth, f"cq{thread_id}", simplified)
