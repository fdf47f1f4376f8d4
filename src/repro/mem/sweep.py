"""Replaying one synthetic TCB access stream through one cache geometry.

:func:`run_mem_point` replays a seeded stream — a Zipf-skewed
persistent working set plus one-shot churn flows — directly through a
:class:`~repro.mem.hierarchy.TcbCacheHierarchy`, counting DRAM charges
the way the memory manager does (one line fill per miss, one write-back
per line leaving the hierarchy).  Swept over the ``mem-geometry`` grid
(:mod:`repro.lab.grids`; ``python -m repro mem sweep`` runs it) it
answers the ROADMAP ablation question cheaply, without a full engine
run: which geometry/policy beats the paper's direct-mapped cache on a
churning million-flow workload, and how much sketch width that takes.

:func:`compare_policies` is the companion scheduler-level experiment:
the same Zipf stream pushed through a slot-starved FPC pair under
``reactive`` (the paper: migrate on observed congestion) and
``predictive`` (decline migrating predicted heavy hitters) placement,
reporting congestion-migration counts for both.

Everything here is seeded and integer-deterministic, so byte-identical
reruns of the sweep CSV are a CI assertion (``cmp`` in the mem-smoke
job), like every other sweep in the repo.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional

from .advisor import POLICY_PREDICTIVE, POLICY_REACTIVE, FlowHeat
from .hierarchy import CacheGeometry, TcbCacheHierarchy
from .sketch import ExactOracle, accuracy_report, make_sketch

#: The paper's geometry; every sweep row is measured against it.
DEFAULT_BASELINE_GEOMETRY = "512x1:direct"


def synth_accesses(
    events: int,
    working_set: int = 2048,
    churn: float = 0.3,
    zipf_s: float = 1.1,
    seed: int = 1234,
) -> List[int]:
    """A seeded TCB access stream: Zipf persistents + one-shot churn.

    With probability ``churn`` an access goes to a brand-new flow id
    never seen again (connection churn — the direct-mapped cache's
    worst case, §4.3.1 at scale); otherwise to one of ``working_set``
    persistent flows with Zipf(``zipf_s``) rank weights, so a handful
    of heavy hitters dominate.
    """
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    rng = random.Random(seed)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, working_set + 1):
        total += 1.0 / (rank ** zipf_s)
        cumulative.append(total)
    accesses: List[int] = []
    next_churn_id = working_set  # churn ids never collide with persistents
    for _ in range(events):
        if rng.random() < churn:
            accesses.append(next_churn_id)
            next_churn_id += 1
        else:
            point = rng.random() * total
            accesses.append(bisect_left(cumulative, point))
    return accesses


def run_mem_point(
    geometry: str = DEFAULT_BASELINE_GEOMETRY,
    sketch: str = "countmin",
    sketch_width: int = 1024,
    events: int = 20000,
    working_set: int = 2048,
    churn: float = 0.3,
    zipf_s: float = 1.1,
    seed: int = 1234,
) -> Dict[str, float]:
    """Replay one synthetic stream through one cache geometry.

    Returns flat numeric scalars — this is the ``mem-geometry`` grid's
    point driver: DRAM charges (fills + write-backs — the number the
    memory manager would put on the channel), hit rate, per-level
    stats, and the sketch's accuracy against the exact oracle over the
    persistent working set.
    """
    parsed = CacheGeometry.parse(geometry)
    estimator = make_sketch(sketch, width=sketch_width, seed=seed)
    oracle = ExactOracle()
    hierarchy = TcbCacheHierarchy(parsed, sketch=estimator, own_updates=False)

    accesses = synth_accesses(
        events, working_set=working_set, churn=churn, zipf_s=zipf_s, seed=seed
    )
    for flow_id in accesses:
        estimator.update(flow_id)
        oracle.update(flow_id)
        hierarchy.access(flow_id)

    accuracy = accuracy_report(
        estimator, oracle, keys=range(min(working_set, 256)), k=8
    )
    row: Dict[str, float] = {
        "sketch_width": sketch_width,
        "events": events,
        "working_set": working_set,
        "churn": churn,
        "seed": seed,
        "hits": hierarchy.hits,
        "misses": hierarchy.misses,
        "hit_rate": hierarchy.hit_rate,
        "writebacks": hierarchy.writebacks,
        "dram_charges": hierarchy.misses + hierarchy.writebacks,
    }
    for index, stats in enumerate(hierarchy.level_stats()):
        for key, value in stats.items():
            row[f"l{index}_{key}"] = value
    row.update(accuracy)
    return row


def best_improvement(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The non-baseline row with the fewest DRAM charges, against the
    baseline at the same (sketch_width, churn) point; None if the
    baseline was not swept."""
    baselines = {
        (row["sketch_width"], row["churn"]): row
        for row in rows
        if row["geometry"] == DEFAULT_BASELINE_GEOMETRY
    }
    best: Optional[Dict[str, object]] = None
    for row in rows:
        if row["geometry"] == DEFAULT_BASELINE_GEOMETRY:
            continue
        baseline = baselines.get((row["sketch_width"], row["churn"]))
        if baseline is None:
            continue
        saved = baseline["dram_charges"] - row["dram_charges"]
        if best is None or saved > best["dram_charges_saved"]:
            best = dict(row)
            best["baseline_dram_charges"] = baseline["dram_charges"]
            best["dram_charges_saved"] = saved
    return best


# --------------------------------------------------------------- policies
def compare_policies(
    events: int = 3000,
    flows: int = 16,
    num_fpcs: int = 3,
    slots: int = 6,
    burst: int = 3,
    zipf_s: float = 1.3,
    seed: int = 1234,
    sketch_width: int = 1024,
) -> Dict[str, int]:
    """Reactive vs predictive placement on a Zipf-skewed event stream.

    Builds an asymmetrically loaded three-FPC engine core (round-robin
    registration leaves the first FPC one flow heavier — and hosting
    the Zipf head) and pushes the same seeded stream through both
    policies, uncoalesced so the hot FPC's input FIFO actually backs
    up.  Under ``reactive`` every backpressure episode migrates
    whatever flow the event addressed — including the heavy hitters,
    which immediately re-congest wherever they land.  Under
    ``predictive`` the FlowHeat advisor declines to move predicted
    heavy hitters and steers the remaining migrations toward FPCs with
    low predicted event mass, so congestion migrations collapse on
    skewed workloads.
    """
    from ..engine.baseline import NullFpu
    from ..engine.events import user_send_event
    from ..engine.fpc import FlowProcessingCore
    from ..engine.memory_manager import MemoryManager
    from ..engine.scheduler import Scheduler
    from ..sim.memory import DRAMModel
    from ..tcp.tcb import Tcb

    def run(policy: str) -> Dict[str, int]:
        fpcs = [
            FlowProcessingCore(i, slots=slots, fpu=NullFpu(4))
            for i in range(num_fpcs)
        ]
        manager = MemoryManager(DRAMModel.hbm())
        heat = (
            FlowHeat(make_sketch("countmin", width=sketch_width, seed=seed))
            if policy == POLICY_PREDICTIVE
            else None
        )
        scheduler = Scheduler(
            fpcs, manager, coalescing=False,
            flow_heat=heat, placement_policy=policy,
        )
        for flow_id in range(flows):
            scheduler.register_new_flow(Tcb(flow_id=flow_id))

        rng = random.Random(seed)
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, flows + 1):
            total += 1.0 / (rank ** zipf_s)
            cumulative.append(total)
        pointer = 0
        for _ in range(events):
            # Submit in bursts so the FPC input FIFOs actually back up —
            # congestion migration only arms under backpressure.
            for _ in range(burst):
                flow_id = bisect_left(cumulative, rng.random() * total)
                pointer += 1
                scheduler.submit(user_send_event(flow_id, pointer, 0.0))
            scheduler.tick()
            manager.tick()
            for fpc in fpcs:
                fpc.tick()
                fpc.drain_results()
        return {
            "congestion_migrations": scheduler.congestion_migrations,
            "declined_hot": scheduler.migrations_declined_hot,
            "evictions": scheduler.evictions,
            "swap_ins": scheduler.swap_ins,
        }

    reactive = run(POLICY_REACTIVE)
    predictive = run(POLICY_PREDICTIVE)
    return {
        "reactive_congestion_migrations": reactive["congestion_migrations"],
        "predictive_congestion_migrations": predictive["congestion_migrations"],
        "predictive_declined_hot": predictive["declined_hot"],
        "reactive_evictions": reactive["evictions"],
        "predictive_evictions": predictive["evictions"],
    }
