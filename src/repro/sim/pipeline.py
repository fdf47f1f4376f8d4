"""Fixed-latency pipeline model.

The FPU is a fully pipelined datapath: a new TCB may enter every
``initiation_interval`` cycles and results emerge ``latency`` cycles after
entry (§4.2.2, §4.5).  This class models exactly that timing contract and
nothing else — the *work* is a callback applied when an item retires.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class Pipeline(Generic[T, R]):
    """A pipeline with fixed latency and initiation interval.

    Items are issued with :meth:`issue` stamped with the current cycle and
    retire (appear from :meth:`retire_ready`) once ``latency`` cycles have
    elapsed.  The structural hazard of re-issuing faster than the
    initiation interval is detected and refused, mirroring hardware.
    """

    def __init__(
        self,
        latency: int,
        initiation_interval: int = 1,
        func: Optional[Callable[[T], R]] = None,
        name: str = "pipeline",
    ) -> None:
        if latency < 1:
            raise ValueError(f"latency must be >= 1, got {latency}")
        if initiation_interval < 1:
            raise ValueError(
                f"initiation interval must be >= 1, got {initiation_interval}"
            )
        self.latency = latency
        self.initiation_interval = initiation_interval
        self.func = func
        self.name = name
        self._in_flight: Deque[Tuple[int, T]] = deque()
        self._last_issue_cycle: Optional[int] = None
        self.issued = 0
        self.retired = 0

    def __len__(self) -> int:
        return len(self._in_flight)

    @property
    def busy(self) -> bool:
        return bool(self._in_flight)

    def can_issue(self, cycle: int) -> bool:
        return (
            self._last_issue_cycle is None
            or cycle - self._last_issue_cycle >= self.initiation_interval
        )

    def issue(self, item: T, cycle: int) -> bool:
        """Enter ``item`` at ``cycle``; False if the II forbids issue now."""
        if not self.can_issue(cycle):
            return False
        self._in_flight.append((cycle, item))
        self._last_issue_cycle = cycle
        self.issued += 1
        return True

    def next_issue_cycle(self) -> int:
        """First cycle the initiation interval admits another issue."""
        if self._last_issue_cycle is None:
            return 0
        return self._last_issue_cycle + self.initiation_interval

    def next_retire_cycle(self) -> Optional[int]:
        """First cycle at which :meth:`retire_ready` would pop something.

        None while empty.  ``FlowProcessingCore.next_action`` uses this
        as a work horizon: every cycle strictly before it is a guaranteed
        no-op for the pipeline, so an idle skip may jump straight to it.
        """
        if not self._in_flight:
            return None
        return self._in_flight[0][0] + self.latency

    def retire_ready(self, cycle: int) -> List[R]:
        """Pop every item whose latency has elapsed by ``cycle``.

        The transform ``func`` (when given) is applied at retire time,
        modelling that results only become architecturally visible at
        pipeline exit.
        """
        out: List[R] = []
        while self._in_flight and cycle - self._in_flight[0][0] >= self.latency:
            _, item = self._in_flight.popleft()
            self.retired += 1
            out.append(self.func(item) if self.func is not None else item)
        return out

    def flush(self) -> None:
        self._in_flight.clear()
        self._last_issue_cycle = None
