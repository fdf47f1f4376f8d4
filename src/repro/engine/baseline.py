"""Comparison designs: the stalling baseline and the TONIC-like design.

* :class:`StallingAccelerator` (w-RMW) — models the existing
  100 Gbps-capable FPGA stacks (Limago [44]) that keep TCP processing
  atomic by stalling between events of the same pipeline: one event every
  ``stall_cycles`` (17 in the paper's Fig 2/Fig 15/Fig 16b baselines).
  With a stall of one cycle at 100 MHz it is the w/o-RMW design: the
  theoretical TONIC-like design, one event per cycle with *no* stalls,
  obtained in hardware by forcing all RMW work into a single cycle
  (§2.5) — which is what costs TONIC byte-level transfer, connectivity
  and versatility.
* :class:`NullFpu` — a latency-only FPU for event-rate micro-benchmarks
  (Figs 15, 16b) where the processing *content* is irrelevant.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar, Deque

from ..sim.component import Component
from ..tcp.tcb import Tcb
from .events import TcpEvent
from .fpu import Fpu, ProcessResult


class NullFpu(Fpu):
    """An FPU that only models pipeline latency; used for rate studies."""

    def __init__(self, latency_cycles: int) -> None:
        super().__init__("newreno")
        self._latency = latency_cycles

    @property
    def latency_cycles(self) -> int:
        return self._latency

    def process(self, tcb: Tcb, dup_count: int, now_ps: int) -> ProcessResult:
        self.passes += 1
        return ProcessResult(tcb)


class StallingAccelerator(Component):
    """w-RMW: serialize events, stalling ``stall_cycles`` between them.

    The stall keeps the read-modify-write on the TCB atomic — the
    behaviour of Limago-class designs (§3.1).  Throughput is exactly
    ``freq / stall_cycles`` events per second, independent of workload.
    """

    #: The input queue's depth, in events.
    depth: ClassVar[int] = 1024

    def __init__(
        self,
        stall_cycles: int = 17,
        freq_hz: float = 250e6,
    ) -> None:
        super().__init__("w-rmw-baseline")
        if stall_cycles < 1:
            raise ValueError("stall must be at least one cycle")
        self.stall_cycles = stall_cycles
        self.freq_hz = freq_hz
        self.input: Deque[TcpEvent] = deque()
        self._stall_remaining = 0
        self.events_processed = 0

    def offer_event(self, event: TcpEvent) -> bool:
        """Queue ``event``; False (and nothing queued) when the input
        is full."""
        if len(self.input) >= self.depth:
            return False
        self.input.append(event)
        return True

    def tick(self) -> None:
        self.cycle += 1
        if self._stall_remaining > 0:
            self._stall_remaining -= 1
            return
        if not self.input:
            return
        self.input.popleft()
        self.events_processed += 1
        self._stall_remaining = self.stall_cycles - 1
