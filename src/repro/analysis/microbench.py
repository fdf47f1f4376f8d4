"""Cycle-level micro-benchmarks of the event-processing designs.

These drive synthetic event streams through the actual simulated
hardware — FPCs, the scheduler with its coalesce FIFOs, and the stalling
baseline — to measure *events consumed per second*.  They are the
"simulated" backbone of Figs 2, 15 and 16b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.baseline import NullFpu, StallingAccelerator
from ..engine.events import EventKind, TcpEvent
from ..engine.fpc import FlowProcessingCore
from ..engine.ftengine import ENGINE_FREQ_HZ
from ..engine.memory_manager import MemoryManager
from ..engine.scheduler import Scheduler
from ..sim.component import Component
from ..sim.memory import DRAMModel
from ..tcp.tcb import Tcb


#: NewReno's FPU depth (Table 2), the FPU every header-rate design runs.
NEWRENO_FPU_CYCLES = 14


def _synthetic_event(flow_id: int, index: int) -> TcpEvent:
    """A user-request event with a monotonically increasing pointer."""
    return TcpEvent(EventKind.USER_REQ, flow_id, req=index + 1)


def measure_baseline_event_rate(
    stall_cycles: int = 17,
    cycles: int = 20_000,
    freq_hz: float = ENGINE_FREQ_HZ,
) -> float:
    """w-RMW design: one event per ``stall_cycles`` (§3.1); with a stall
    of one cycle at 100 MHz, the w/o-RMW design."""
    accel = StallingAccelerator(stall_cycles=stall_cycles, freq_hz=freq_hz)
    index = 0
    for _ in range(cycles):
        if not accel.input.full:
            accel.offer_event(_synthetic_event(0, index))
            index += 1
        accel.tick()
    return accel.events_processed * freq_hz / cycles


def measure_fpc_event_rate(
    fpu_latency: int = NEWRENO_FPU_CYCLES,
    cycles: int = 20_000,
) -> float:
    """One FPC with a latency-only FPU, one flow: the Fig 15 F4T curve.

    Events of the same flow accumulate in the event table while the FPU
    is busy, so the acceptance rate stays at one event per two cycles —
    125 M events/s at 250 MHz — for *any* FPU latency (§4.5).
    """
    fpc = FlowProcessingCore(0, slots=1, fpu=NullFpu(fpu_latency))
    fpc.accept_tcb(Tcb(flow_id=0))
    index = 0
    for _ in range(cycles):
        if not fpc.input.full:
            fpc.offer_event(_synthetic_event(0, index))
            index += 1
        fpc.tick()
        fpc.drain_results()
    return fpc.events_accepted * ENGINE_FREQ_HZ / cycles


@dataclass
class HeaderRateDesign:
    """A Fig 16b design point: FPC count, coalescing, or the baseline."""

    name: str
    num_fpcs: int = 1
    coalescing: bool = False
    baseline_stall: Optional[int] = None  # set -> stalling baseline

    @classmethod
    def baseline(cls) -> "HeaderRateDesign":
        return cls("Baseline", baseline_stall=17)

    @classmethod
    def one_fpc(cls) -> "HeaderRateDesign":
        return cls("1FPC", num_fpcs=1, coalescing=False)

    @classmethod
    def one_fpc_coalescing(cls) -> "HeaderRateDesign":
        return cls("1FPC-C", num_fpcs=1, coalescing=True)

    @classmethod
    def f4t(cls) -> "HeaderRateDesign":
        return cls("F4T", num_fpcs=8, coalescing=True)


def measure_header_rate(
    design: HeaderRateDesign,
    workload: str,
    offered_rate: float,
    flows: int,
    cycles: int = 30_000,
) -> float:
    """Consumed header-event rate for a design under a §6 workload.

    ``workload`` is 'bulk' (events round-robin over one flow per core —
    consecutive same-flow events) or 'rr' (round-robin over all flows).
    The offered load models 24 cores' software submission rate; events
    that the design cannot accept this cycle are retried (backpressure),
    so the measured rate is the design's consumption capacity.
    """
    if workload not in ("bulk", "rr"):
        raise ValueError(f"unknown workload {workload!r}")
    freq_hz = ENGINE_FREQ_HZ
    offered_per_cycle = offered_rate / freq_hz

    if design.baseline_stall is not None:
        accel = StallingAccelerator(stall_cycles=design.baseline_stall, freq_hz=freq_hz)
        credit = 0.0
        index = 0
        for _ in range(cycles):
            credit += offered_per_cycle
            while credit >= 1.0 and not accel.input.full:
                accel.offer_event(_synthetic_event(index % flows, index))
                index += 1
                credit -= 1.0
            credit = min(credit, 8.0)
            accel.tick()
        return accel.events_processed * freq_hz / cycles

    # One clock for every block, advanced once per cycle and read by all
    # of them, as FtEngine.tick does; a block is ticked only on a cycle
    # its ``next_action`` names (earlier, its tick is a no-op).  Every
    # flow fits in SRAM, so the memory manager is never given work.
    clock = Component("header-rate")
    slots = max(1, (flows + design.num_fpcs - 1) // design.num_fpcs)
    fpcs = [
        FlowProcessingCore(i, slots=slots, fpu=NullFpu(NEWRENO_FPU_CYCLES), clock=clock)
        for i in range(design.num_fpcs)
    ]
    manager = MemoryManager(DRAMModel.hbm(), clock=clock)
    scheduler = Scheduler(fpcs, manager, coalescing=design.coalescing, clock=clock)
    for flow_id in range(flows):
        scheduler.register_new_flow(Tcb(flow_id=flow_id))

    # In bulk mode each core streams one flow, so consecutive submitted
    # events hit the same flow (command queues are read in batches,
    # §5.1); in rr mode consecutive events hit different flows.
    cores = min(24, flows)
    bulk = workload == "bulk"
    consumed = 0
    credit = 0.0
    index = 0
    for cycle in range(1, cycles + 1):
        clock.cycle = cycle
        credit += offered_per_cycle
        while credit >= 1.0:
            if bulk:
                # Batched reads: bursts of consecutive events per flow.
                flow_id = (index // 8) % cores
            else:
                flow_id = index % flows
            if not scheduler.submit(_synthetic_event(flow_id, index)):
                break  # backpressure: retry next cycle
            index += 1
            consumed += 1
            credit -= 1.0
        credit = min(credit, 16.0)
        if scheduler.next_action <= cycle:
            scheduler.tick()
        for fpc in fpcs:
            if fpc.next_action <= cycle:
                fpc.tick()
                fpc.drain_results()
    return consumed * freq_hz / cycles
