"""The metric declarations BENCHMARK.json is generated from.

End-to-end metrics are defined on all six workloads, are never zero and
hold still from seed to seed (the benchmark contract requires all
three), which is why the simulated statistics and the paper error —
exact per seed, but different for every seed and undefined on some
workloads — are declared with the per-layer metrics instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.spans import ROOT, SPAN_NAMES

#: (name, unit, better, bound, definition)
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "CPU time from a fresh interpreter's start to the timed region's "
     "(imports, scenario and schedule expansion, Testbed/LoadEngine "
     "construction), at reference speed; median of 3 set-up-only children"),
    ("host_us_per_op", "us", "lower", 0.25,
     "host CPU time of the one timed public call, net of calibration "
     "slices, at reference speed, per completed op; median over the units "
     "of the run"),
    ("peak_rss_mib", "MiB", "lower", 0.10,
     "ru_maxrss of the benchmark process when its first unit ends"),
    ("completed_share", "ratio", "higher", 0.001,
     "completed / offered ops (paper_exhibits: checks in tolerance / "
     "checks); 1 - failed share, so it is never 0"),
]

#: Exact counts read from the layers' public stat objects: (name, unit, better).
COUNTS: List[Tuple[str, str, str]] = [
    ("traffic.offered", "count", "higher"),
    ("traffic.completed", "count", "higher"),
    ("engine.cycles_ticked", "count", "lower"),
    ("engine.cycles_skipped", "count", "higher"),
    ("engine.skip_ratio", "ratio", "higher"),
    ("engine.events_submitted", "count", "lower"),
    ("engine.events_coalesced", "count", "higher"),
    ("engine.events_routed", "count", "lower"),
    ("engine.fpc_events_accepted", "count", "lower"),
    ("engine.tcbs_processed", "count", "lower"),
    ("engine.packets_sent", "count", "lower"),
    ("engine.packets_received", "count", "lower"),
    ("engine.retransmissions", "count", "lower"),
    ("engine.timeouts_fired", "count", "lower"),
    ("engine.evictions", "count", "lower"),
    ("engine.swap_ins", "count", "lower"),
    ("engine.pending_retries", "count", "lower"),
    ("engine.memmgr_events_handled", "count", "lower"),
    ("mem.hits", "count", "higher"),
    ("mem.misses", "count", "lower"),
    ("mem.writebacks", "count", "lower"),
    ("mem.hit_ratio", "ratio", "higher"),
    ("sim.dram_bytes", "B", "lower"),
    ("tcp.ooo_packets", "count", "lower"),
    ("tcp.dup_acks", "count", "lower"),
    ("net.frames_sent", "count", "lower"),
    ("net.frames_dropped", "count", "lower"),
    ("net.bytes_sent", "B", "lower"),
    ("fabric.retransmits", "count", "lower"),
    ("fabric.timeouts", "count", "lower"),
    ("fabric.switch_drops", "count", "lower"),
    ("fabric.ecn_marks", "count", "lower"),
    ("fabric.peak_buffer_kib", "KiB", "lower"),
    ("shard.epochs", "count", "lower"),
    ("shard.events", "count", "lower"),
    ("shard.packets_forwarded", "count", "lower"),
    ("shard.conns_established", "count", "higher"),
    ("analysis.checks", "count", "higher"),
    ("analysis.checks_failed", "count", "lower"),
    ("analysis.paper_err_max", "ratio", "lower"),
    ("analysis.paper_err_mean", "ratio", "lower"),
]
COUNT_NAMES = [name for name, _unit, _better in COUNTS]

#: The modelled design's results (simulated time, exact per seed).
SIM_STATS: List[Tuple[str, str, str]] = [
    ("sim.ops_per_s", "1/s", "higher"),
    ("sim.goodput_gbps", "Gbit/s", "higher"),
    ("sim.p50_us", "us", "lower"),
    ("sim.tail_us", "us", "lower"),
]

#: The traced run's own bookkeeping and ratios of host times (not exact).
BENCH_STATS: List[Tuple[str, str, str]] = [
    ("shard.cell_imbalance", "ratio", "lower"),
    (f"{ROOT}.self_s", "s", "lower"),
    ("bench.root_self_share", "ratio", "lower"),
    ("bench.traced_us_per_op", "us", "lower"),
    ("bench.wall_s", "s", "lower"),
    ("bench.speed_factor", "ratio", "higher"),
]


def _span_metrics() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for span in SPAN_NAMES:
        if not span.startswith("analysis."):
            # An exhibit driver runs exactly once; its call count says nothing.
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out


PER_LAYER: List[Tuple[str, str, str]] = (
    _span_metrics() + COUNTS + SIM_STATS + BENCH_STATS
)
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}
END_TO_END_UNITS: Dict[str, str] = {
    name: unit for name, unit, _b, _bound, _d in END_TO_END
}
if len(PER_LAYER) > 128:
    raise ValueError(f"{len(PER_LAYER)} per-layer metrics; the contract allows 128")
