#!/usr/bin/env python3
"""Connectivity stress: many flows, TCB migration, and the Fig 13 sweep.

Part 1 runs a *functional* stress test with deliberately tiny FPCs
(2 FPCs x 2 slots) so most TCBs live in DRAM: every transfer exercises
the scheduler's migration protocol — evict flag, evict checker, pending
queue, swap-in — with end-to-end data integrity checked.

Part 2 reproduces Fig 13's shape: the echo request rate across 256 to
65 536 flows for Linux, F4T-with-DDR4 and F4T-with-HBM.

Run:  python examples/connectivity_stress.py
"""

from repro.apps.echo import EchoModel
from repro.engine import FtEngineConfig, Testbed
from repro.host import CpuModel, LinuxTcpStack


def functional_migration_stress(flows: int = 16) -> None:
    print(f"== Part 1: {flows} flows on 2x2-slot engines (forced migration) ==")
    tiny = FtEngineConfig(num_fpcs=2, fpc_slots=2)
    testbed = Testbed(config_a=tiny, config_b=FtEngineConfig(num_fpcs=2, fpc_slots=2))
    testbed.engine_b.listen(80)
    client_flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(flows)]
    server_flows = []

    def all_accepted():
        flow = testbed.engine_b.accept(80)
        if flow is not None:
            server_flows.append(flow)
        return len(server_flows) == flows

    assert testbed.run(until=all_accepted, max_time_s=5.0)
    print(f"established {flows} connections; "
          f"{testbed.engine_a.memory_manager.flow_count} client TCBs in DRAM")

    payloads = {
        flow: bytes((i * 37 + index) % 256 for i in range(4000))
        for index, flow in enumerate(client_flows)
    }
    for flow, data in payloads.items():
        testbed.engine_a.send_data(flow, data)
    assert testbed.run(
        until=lambda: all(testbed.engine_b.readable(f) >= 4000 for f in server_flows),
        max_time_s=10.0,
    )
    received = sorted(testbed.engine_b.recv_data(f, 4000) for f in server_flows)
    assert received == sorted(payloads.values()), "data corrupted in migration!"
    scheduler = testbed.engine_a.scheduler
    print(f"all {flows * 4000} bytes delivered intact")
    print(f"migrations: {scheduler.evictions} evictions, "
          f"{scheduler.swap_ins} swap-ins, "
          f"{scheduler.pending_retries} pending-queue retries "
          f"(max depth {scheduler.max_pending})")
    print()


def fig13_sweep() -> None:
    print("== Part 2: echo rate vs flow count (Fig 13, 8 cores) ==")
    linux = LinuxTcpStack(CpuModel(cores=8))
    ddr4 = EchoModel(memory="ddr4")
    hbm = EchoModel(memory="hbm")
    print(f"{'flows':>7} | {'Linux':>9} | {'F4T-DDR4':>9} | {'F4T-HBM':>9}")
    print("-" * 45)
    for flows in (256, 1024, 2048, 4096, 16384, 65536):
        row = (
            linux.echo_rate(flows) / 1e6,
            ddr4.rate(flows) / 1e6,
            hbm.rate(flows) / 1e6,
        )
        marker = "  <- DRAM swap throttling" if flows > 1024 and row[1] < 0.9 * row[2] else ""
        print(f"{flows:7d} | {row[0]:7.2f} M | {row[1]:7.1f} M | {row[2]:7.1f} M{marker}")
    print("\nF4T-HBM stays flat to 64K flows; DDR4 throttles past the 1024")
    print("SRAM-resident flows — the paper's Fig 13 shape.")


if __name__ == "__main__":
    functional_migration_stress()
    fig13_sweep()
