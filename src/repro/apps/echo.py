"""The 128 B echoing (ping-pong) benchmark (§5.3, Fig 13).

Each flow sends a 128 B payload only after receiving the peer's message,
so at N flows the TCB access pattern has the *worst possible* temporal
locality: with more active flows than FPC slots, nearly every
transaction forces a DRAM swap.  This is the experiment that separates
F4T-with-DRAM (38 GB/s, throttled past 1024 flows) from F4T-with-HBM
(460 GB/s, flat) and both from Linux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ..engine.memory_manager import MemoryManager
from ..engine.events import EventKind, TcpEvent
from ..host.calibration import F4T_CYCLES_PER_ECHO
from ..host.cpu import CpuModel
from ..sim.memory import DRAMModel
from ..tcp.tcb import Tcb


def measure_dram_swap_rate(
    memory: str = "ddr4",
    flows: int = 65536,
    transactions: int = 4000,
    cache_entries: int = 512,
) -> float:
    """Micro-simulate the memory manager's swap path; transactions/s.

    One echo transaction for a DRAM-resident flow costs: handle the RX
    event against the DRAM TCB (cache fill + dirty write-back on a
    miss), swap the TCB in (read), and accept the displaced flow's
    swap-out (write) — all serialized on the DRAM channel (§4.3.1).
    """
    dram = DRAMModel.hbm() if memory == "hbm" else DRAMModel.ddr4()
    # Kernel time is integer picoseconds end-to-end (simlint F4T007);
    # the DRAM model's fractional busy horizon is ceiled on read.
    clock = {"ps": 0}
    manager = MemoryManager(
        dram, cache_entries=cache_entries, time_ps_fn=lambda: clock["ps"]
    )
    for flow_id in range(flows):
        manager.store(Tcb(flow_id=flow_id))
    busy_base_ps = dram.busy_until_ps  # exclude the priming stores

    for i in range(transactions):
        flow_id = i % flows  # round-robin: worst-case locality (§5.3)
        clock["ps"] = max(clock["ps"], math.ceil(dram.busy_until_ps))
        manager.handle_event(
            TcpEvent(EventKind.RX_PACKET, flow_id, ack_needed=True)
        )
        tcb, _ = manager.take(flow_id)  # swap-in read
        manager.store(tcb)  # displaced flow's swap-out write
    elapsed_ps = dram.busy_until_ps - busy_base_ps
    if elapsed_ps <= 0:
        return float("inf")
    return transactions / (elapsed_ps / 1e12)


@dataclass
class EchoModel:
    """Fig 13's F4T curves: software rate throttled by TCB swapping."""

    memory: str = "hbm"
    cores: ClassVar[int] = 8
    sram_flows: ClassVar[int] = 1024  # reference design: 8 FPCs x 128 (§4.4.2)
    cache_entries: ClassVar[int] = 512

    def rate(self, flows: int) -> float:
        cpu = CpuModel(cores=self.cores)
        software = cpu.rate_for(F4T_CYCLES_PER_ECHO)
        if flows <= self.sram_flows:
            return software
        swap_rate = measure_dram_swap_rate(
            self.memory,
            flows=min(flows, 8192),  # locality is already worst-case
            transactions=2000,
            cache_entries=self.cache_entries,
        )
        # Fraction of transactions landing on DRAM-resident flows under
        # uniform round-robin access.
        dram_fraction = (flows - self.sram_flows) / flows
        # Swapping proceeds concurrently with the software path (the
        # engine hides it behind FPC processing, §4.3.2), so the
        # bottleneck is whichever is slower — not their sum.
        return min(software, swap_rate / dram_fraction)
