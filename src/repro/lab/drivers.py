"""Importable driver functions for the prebuilt grids.

Every function here is a *point driver*: it computes one grid point from
keyword parameters and returns either a flat mapping of scalar names to
numbers or a full :class:`~repro.analysis.reporting.ExperimentResult`
(the exhibit wrapper does the latter, so paper-vs-measured checks land
in the store too).  Workers resolve these by dotted path
(``repro.lab.drivers:ablation_mss_point``), which is why they live at
module level and take only plain, JSON-representable parameters.

The ablation drivers are the single definition of each ablation sweep's
*measurement*; the sweep's *points* live in :mod:`repro.lab.grids`, and
``benchmarks/test_ablation_*.py`` consume both — model and bench share
one definition.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.reporting import ExperimentResult


# --------------------------------------------------------------- exhibits
def run_exhibit(exhibit: str, quick: bool = False) -> ExperimentResult:
    """One paper exhibit (``table1`` … ``figure16b``) as a grid point."""
    from ..analysis import report

    return report.run_all([exhibit], quick)[exhibit]


# ------------------------------------------------- ablation: header rates
def ablation_header_point(
    num_fpcs: int,
    coalescing: bool,
    workload: str = "bulk",
    offered: Optional[float] = None,
    flows: Optional[int] = None,
    cycles: int = 10_000,
) -> Dict[str, float]:
    """Consumed header-event rate of one scheduler/FPC design point.

    This is the common measurement behind the coalescing, FPC-count and
    coalesce-depth ablations (Fig 16b's axes, swept independently).
    ``offered`` defaults to the paper's 24-core submission rate for the
    workload; ``flows`` defaults to the bench conventions (24 same-flow
    streams for bulk, 48 flows per FPC for round-robin).
    """
    from ..analysis.microbench import HeaderRateDesign, measure_header_rate
    from ..host.calibration import F4T_HEADER_OFFERED_BULK, F4T_HEADER_OFFERED_RR

    if offered is None:
        offered = (
            F4T_HEADER_OFFERED_BULK if workload == "bulk" else F4T_HEADER_OFFERED_RR
        )
    if flows is None:
        flows = 24 if workload == "bulk" else 48 * num_fpcs
    design = HeaderRateDesign(
        f"{num_fpcs}FPC{'-C' if coalescing else ''}",
        num_fpcs=num_fpcs,
        coalescing=coalescing,
    )
    rate = measure_header_rate(design, workload, offered, flows, cycles=cycles)
    return {"rate": rate, "offered": offered, "absorbed": min(1.0, rate / offered)}


# --------------------------------------------------- ablation: MSS sweep
def ablation_mss_point(mss: int, total_bytes: int = 300_000) -> Dict[str, float]:
    """Functional goodput at one MSS, plus its closed-form wire ceiling."""
    from ..engine.ftengine import FtEngineConfig
    from ..engine.testbed import Testbed
    from ..net.link import LINK_100G
    from ..sim.component import NEVER

    testbed = Testbed(
        config_a=FtEngineConfig(mss=mss), config_b=FtEngineConfig(mss=mss)
    )
    a_flow, b_flow = testbed.establish()
    start = testbed.now_s
    sent = {"n": 0, "received": 0, "room": True}
    payload = bytes(16384)

    def pump() -> bool:
        if sent["n"] < total_bytes:
            accepted = testbed.engine_a.send_data(a_flow, payload)
            sent["n"] += accepted
            # One payload per call: a full accept may leave room for the
            # next call; a short one means only an 'acked' frees more.
            sent["room"] = accepted == len(payload)
        readable = testbed.engine_b.readable(b_flow)
        if readable:
            testbed.engine_b.recv_data(b_flow, readable)
            sent["received"] += readable
        return sent["received"] >= total_bytes

    def next_call_ps() -> int:
        # The next tick while the last send filled its payload; else
        # only an 'acked' or 'data' message can move the pump.
        if sent["room"] and sent["n"] < total_bytes:
            return testbed.time_ps
        return NEVER

    if not testbed.run(until=pump, max_time_s=start + 5.0, next_call_ps=next_call_ps):
        raise RuntimeError(f"mss={mss}: transfer did not finish in simulated time")
    goodput_gbps = total_bytes * 8 / (testbed.now_s - start) / 1e9
    ceiling = LINK_100G.max_goodput_gbps(mss)
    return {
        "goodput_gbps": goodput_gbps,
        "ceiling_gbps": ceiling,
        "wire_efficiency": goodput_gbps / ceiling,
    }


# -------------------------------------------------- traffic: scenario runs
def traffic_scenario_point(
    scenario: str,
    seed: Optional[int] = None,
    load_scale: float = 1.0,
) -> "PointResult":
    """One traffic scenario at one offered-load scale on the engines,
    invariants audited.

    Returns a :class:`~repro.lab.grid.PointResult` whose ``metrics``
    field carries the full labeled snapshot (engine counters, per-class
    traffic histograms), so ``lab`` runs persist the whole picture, not
    just the headline scalars.
    """
    import json

    from ..lab.grid import PointResult
    from ..obs import collect_traced_run
    from ..traffic import LoadEngine, get_scenario

    engine = LoadEngine(
        get_scenario(scenario, seed=seed), load_scale=load_scale, audit=True
    )
    result = engine.run()
    registry = collect_traced_run(engine.testbed, result)
    scalars: Dict[str, float] = {
        "offered": result.offered,
        "completed": result.completed,
        "offered_rps": result.offered_rps,
        "achieved_rps": result.achieved_rps,
        "goodput_gbps": result.goodput_gbps,
        "p50_us": result.p50_s * 1e6,
        "p99_us": result.p99_s * 1e6,
        "frames_dropped": result.frames_dropped,
        "violations": len(result.violations),
        "finished": int(result.finished),
    }
    for name, metrics in result.classes.items():
        scalars[f"{name}_achieved_rps"] = metrics.achieved_rps
        scalars[f"{name}_p99_us"] = metrics.p99_s * 1e6
    return PointResult(
        scalars=scalars, metrics=json.loads(registry.snapshot().to_json())
    )


def traffic_churn_point(connections: int, concurrency: int) -> Dict[str, float]:
    """Connection churn rate at one concurrency level."""
    from ..apps.shortconn import run_connection_churn

    result = run_connection_churn(connections=connections, concurrency=concurrency)
    return {
        "connections_per_s": result.connections_per_s,
        "connections_completed": result.connections_completed,
        "lifecycle_median_ms": result.lifecycle_latencies.median * 1e3,
        "lifecycle_p99_ms": result.lifecycle_latencies.p99 * 1e3,
        "elapsed_s": result.elapsed_s,
    }


# ------------------------------------------------- fabric: multi-host runs
def fabric_point(
    scenario: str,
    backend: str = "f4t",
    num_hosts: Optional[int] = None,
    seed: Optional[int] = None,
    load_scale: float = 1.0,
) -> Dict[str, float]:
    """One fabric scenario on one offload backend (``repro.fabric``).

    Model-backed for the soft backends, engine-backed for ``f4t``; the
    scalars are the sweep-table columns plus switch-side counters, so a
    persisted grid row is one line of the backend comparison.
    """
    from ..fabric import get_fabric_scenario, run_fabric

    sc = get_fabric_scenario(scenario, num_hosts=num_hosts, seed=seed)
    result = run_fabric(sc, backend=backend, load_scale=load_scale)
    scalars: Dict[str, float] = {"finished": int(result.finished)}
    scalars.update(result.scalars())
    return scalars


# -------------------------------------------- shard: multi-process cells
def shard_point(workers: int = 1, seed: Optional[int] = None) -> Dict[str, float]:
    """The ``churn`` shard (``repro.shard``) at one worker count.

    ``fingerprint_prefix`` is the first 12 hex digits of the merged
    trace digest packed into a float-safe integer — rows of a
    worker-count sweep must all carry the same value (the lab-table
    form of ``repro shard sweep``'s determinism check).
    """
    from ..shard import get_shard_scenario, run_shard

    sc = get_shard_scenario("churn", seed=seed)
    result = run_shard(sc, workers=workers, fingerprint=True)
    scalars: Dict[str, float] = {
        "finished": int(result.finished),
        "epochs": result.epochs,
        "peak_concurrent": result.peak_concurrent,
        "elapsed_s": result.elapsed_s,
        "max_worker_rss_kb": result.max_worker_rss_kb,
        "conns_established": result.total("conns_established"),
        "txns_completed": result.total("txns_completed"),
        "dropped": result.total("dropped"),
        "retransmits": result.total("retransmits"),
    }
    if result.fingerprint:
        scalars["fingerprint_prefix"] = int(result.fingerprint[:12], 16)
    return scalars


# ---------------------------------------------- ablation: TCB cache sweep
def ablation_tcb_cache_point(
    cache_entries: int,
    transactions: int = 2000,
) -> Dict[str, float]:
    """DDR4 swap-transaction rate over 4096 flows for one TCB-cache size."""
    from ..apps.echo import measure_dram_swap_rate

    rate = measure_dram_swap_rate(
        "ddr4", flows=4096, transactions=transactions, cache_entries=cache_entries
    )
    return {"swap_rate": rate}
