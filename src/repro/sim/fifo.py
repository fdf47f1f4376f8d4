"""Bounded FIFO with backpressure, the glue between pipeline stages.

FtEngine connects its modules with FIFOs (e.g. the scheduler's four
16-entry coalesce FIFOs, the pending queue).  ``push`` returns False when
full so upstream logic observes backpressure — the signal the scheduler
uses to detect a congested FPC (§4.4.2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded first-in-first-out queue counting the pushes it refused."""

    def __init__(self, capacity: int, name: str = "fifo") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.rejects = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: T) -> bool:
        """Append ``item``; returns False (and drops nothing) when full."""
        items = self._items
        if len(items) >= self.capacity:
            self.rejects += 1
            return False
        items.append(item)
        return True

    def pop(self) -> T:
        if not self._items:
            raise IndexError(f"pop from empty FIFO {self.name!r}")
        return self._items.popleft()

    def try_pop(self) -> Optional[T]:
        """Pop the head, or return None when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def clear(self) -> None:
        self._items.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fifo {self.name!r} {len(self._items)}/{self.capacity}>"
