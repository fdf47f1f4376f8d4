"""The retired per-cycle header-rate loop, kept as a test oracle.

``measure_header_rate`` once built every block stand-alone — each its
own clock, counting the ticks it was given — and ticked the scheduler
and every FPC on every cycle.  That loop lives on here unchanged.  It
never reads a published ``next_action``, so the one-clock loop, which
ticks a block only on a cycle its horizon names, must consume exactly
the same events: the same float for every design point.
"""

from repro.analysis.microbench import NEWRENO_FPU_CYCLES, HeaderRateDesign, _synthetic_event
from repro.engine.baseline import NullFpu, StallingAccelerator
from repro.engine.fpc import FlowProcessingCore
from repro.engine.ftengine import ENGINE_FREQ_HZ
from repro.engine.memory_manager import MemoryManager
from repro.engine.scheduler import Scheduler
from repro.sim.memory import DRAMModel
from repro.tcp.tcb import Tcb


def measure_header_rate_per_cycle(
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
        accepted = 0
        credit = 0.0
        index = 0
        for _ in range(cycles):
            credit += offered_per_cycle
            while credit >= 1.0 and accel.offer_event(
                _synthetic_event(index % flows, index)
            ):
                index += 1
                accepted += 1
                credit -= 1.0
            credit = min(credit, 8.0)
            accel.tick()
        return accel.events_processed * freq_hz / cycles

    slots = max(1, (flows + design.num_fpcs - 1) // design.num_fpcs)
    fpcs = [
        FlowProcessingCore(i, slots=slots, fpu=NullFpu(NEWRENO_FPU_CYCLES))
        for i in range(design.num_fpcs)
    ]
    manager = MemoryManager(DRAMModel.hbm())
    scheduler = Scheduler(fpcs, manager, coalescing=design.coalescing)
    for flow_id in range(flows):
        scheduler.register_new_flow(Tcb(flow_id=flow_id))

    # In bulk mode each core streams one flow, so consecutive submitted
    # events hit the same flow (command queues are read in batches,
    # §5.1); in rr mode consecutive events hit different flows.
    cores = min(24, flows)
    consumed = 0
    credit = 0.0
    index = 0
    per_core_counter = [0] * cores
    for _ in range(cycles):
        credit += offered_per_cycle
        while credit >= 1.0:
            if workload == "bulk":
                # Batched reads: bursts of consecutive events per flow.
                core = (index // 8) % cores
                flow_id = core % flows
            else:
                flow_id = index % flows
            per_core_counter[core if workload == "bulk" else 0] += 1
            if not scheduler.submit(_synthetic_event(flow_id, index)):
                break  # backpressure: retry next cycle
            index += 1
            consumed += 1
            credit -= 1.0
        credit = min(credit, 16.0)
        scheduler.tick()
        for fpc in fpcs:
            fpc.tick()
            fpc.drain_results()
    return consumed * freq_hz / cycles
