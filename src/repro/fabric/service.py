"""Per-backend NIC/stack service models for the soft functional stack.

A :class:`ServiceModel` answers one question: *when does a segment that
the transport decided to send actually reach the wire?*  Each offload
architecture in the design space differs in exactly the three knobs the
model exposes —

* **lanes** — how many segments can be in processing concurrently
  (F4T's parallel FPCs, Linux's cores, FlexTOE's single deep pipeline);
* **occupancy** — how long one segment holds its lane (F4T's
  one-event-per-2-cycles FPC rate, Linux's calibrated per-send cycles);
* **latency** — fixed processing delay added on top (pipeline depth for
  FlexTOE, the off-path proxy hop for PnO, kernel wakeups for Linux).

Every return value and every piece of internal state is **integer
picoseconds** (simlint F4T007 applies to this package).  The numbers
behind the non-F4T backends are *model-backed* — published
architecture descriptions scaled against this repo's calibrated host
constants — never paper-reproduced measurements; EXPERIMENTS.md labels
them accordingly.
"""

from __future__ import annotations

from typing import List

from ..host.calibration import (
    HOST_CPU_FREQ_HZ,
    LINUX_CYCLES_PER_SEND_BULK,
)

#: One FPC accepts one event per 2 cycles at 250 MHz (§4.2.3) = 8 ns.
F4T_EVENT_INTERVAL_PS = 8_000
#: End-to-end engine processing latency for one segment (model-backed,
#: consistent with the paper's "a few hundred ns" full-offload path).
F4T_ENGINE_LATENCY_PS = 600_000
#: One DRAM TCB swap on the §4.3.1 path, charged per segment of a flow
#: that overflows SRAM residency (model-backed).
F4T_DRAM_SWAP_PS = 250_000


class ServiceModel:
    """Base lane-occupancy model; subclasses set the three knobs.

    ``tx_ready_ps`` is the single hot call: pick the flow's lane, wait
    for it to free, hold it for the segment's occupancy, and return the
    instant the segment hits the wire (lane start + fixed latency).
    State is a per-lane busy-until array, so the model is deterministic
    and O(1) per segment.
    """

    name = "service"
    #: Concurrent processing contexts.
    lanes = 1
    #: Fixed added latency per segment (int ps).
    latency_ps = 0

    def __init__(self) -> None:
        self._lane_free_ps: List[int] = [0] * self.lanes

    def occupancy_ps(self, payload_bytes: int) -> int:
        """How long one segment holds its lane (int ps)."""
        raise NotImplementedError

    def tx_ready_ps(self, now_ps: int, flow_slot: int, payload_bytes: int) -> int:
        """When a segment submitted now actually reaches the wire."""
        lane = flow_slot % self.lanes
        start = self._lane_free_ps[lane]
        if start < now_ps:
            start = now_ps
        self._lane_free_ps[lane] = start + self.occupancy_ps(payload_bytes)
        return start + self.latency_ps

    def rx_delay_ps(self, payload_bytes: int) -> int:
        """Ingress processing before the app-visible state changes."""
        return self.latency_ps


class F4TService(ServiceModel):
    """The F4T FPC engine as a service model (fabric hosts only).

    Parallel FPC lanes at the one-event-per-2-cycles rate; flows beyond
    the SRAM residency capacity pay a DRAM TCB swap per segment — the
    Fig 13 cliff, expressed as a fabric host.  Point-to-point F4T runs
    use the real :class:`~repro.engine.ftengine.FtEngine`; this model
    exists so F4T can sit in N-host fabrics next to its rivals.
    """

    name = "f4t"
    #: One lane per FPC.
    lanes = 8
    latency_ps = F4T_ENGINE_LATENCY_PS
    #: Flows past this slot are DRAM-resident.
    sram_flows = 1024
    dram_swap_ps = F4T_DRAM_SWAP_PS

    def occupancy_ps(self, payload_bytes: int) -> int:
        return F4T_EVENT_INTERVAL_PS

    def tx_ready_ps(self, now_ps: int, flow_slot: int, payload_bytes: int) -> int:
        # ServiceModel.tx_ready_ps with this occupancy, in one call: it
        # runs once per segment every F4T host sends.
        lanes = self._lane_free_ps
        lane = flow_slot % self.lanes
        start = lanes[lane]
        if start < now_ps:
            start = now_ps
        lanes[lane] = start + F4T_EVENT_INTERVAL_PS
        if flow_slot >= self.sram_flows:
            # DRAM-resident flow: the TCB swap serializes ahead of the
            # segment (§4.3.1), lengthening its path but not the lane's.
            return start + self.latency_ps + self.dram_swap_ps
        return start + self.latency_ps


class FlexToeService(ServiceModel):
    """FlexTOE-style fine-grained pipeline parallelism (model-backed).

    One deep data-path pipeline, no per-flow cores: aggregate segment
    rate is flow-count *independent* (its headline claim against
    per-flow-core designs) at the price of pipeline-depth latency.
    """

    name = "flextoe"
    lanes = 1
    initiation_interval_ps = 15_000
    latency_ps = 2_500_000

    def occupancy_ps(self, payload_bytes: int) -> int:
        return self.initiation_interval_ps


class PnoService(ServiceModel):
    """PnO-style transparent off-path SmartNIC proxy (model-backed).

    TCP terminates on the SmartNIC SoC, off the host's critical path:
    throughput comparable to on-path offload, but every segment crosses
    the proxy hop — SoC forwarding plus an extra DMA — both directions.
    """

    name = "pno"
    #: One lane per SoC core.
    lanes = 4
    #: SoC forwarding time per segment.
    segment_ps = 100_000
    #: The proxy hop.
    latency_ps = 5_000_000

    def occupancy_ps(self, payload_bytes: int) -> int:
        return self.segment_ps


class LinuxService(ServiceModel):
    """The in-kernel stack baseline, from the calibrated host constants.

    Per-segment cost is the Fig 8a calibration (fixed per-send cycles
    plus a per-byte copy term) on ``cores`` parallel cores; latency is
    the kernel wakeup/scheduling path.
    """

    name = "linux_stack"
    #: One lane per core.
    lanes = 4
    latency_ps = 15_000_000
    #: Integer ps per 1000 CPU cycles, so per-call math stays exact.
    _ps_per_kcycle = int(1e15 / HOST_CPU_FREQ_HZ)
    _base_kcycles_x1000 = int(LINUX_CYCLES_PER_SEND_BULK * 1000)

    def occupancy_ps(self, payload_bytes: int) -> int:
        # base + 0.6 cycles/byte (the linux_stack bulk calibration),
        # carried in millicycles so no fractional ps ever accumulates.
        millicycles = self._base_kcycles_x1000 + 600 * payload_bytes
        return millicycles * self._ps_per_kcycle // 1_000_000
