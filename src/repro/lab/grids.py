"""The registry of prebuilt grids.

Each factory returns an :class:`~repro.lab.grid.ExperimentGrid` whose
driver is a dotted path into :mod:`repro.lab.drivers`.  These are the
single source of truth for the sweep points: the CLI (``python -m repro
lab run <name>``) executes them through the store/worker machinery, and
``benchmarks/test_ablation_*.py`` iterate the very same points
in-process — so a point added here shows up in both.  The three sweep
verbs (``traffic sweep``, ``fabric sweep``, ``mem sweep``) call their
factory with the verb's flags as keywords and run the grid in-process;
the keyword defaults *are* the registered grid, so verb and ``lab run``
hash to the same run ids.

``quick=True`` shrinks sample counts for smoke runs; because a point's
run id hashes its parameters, quick and full results never collide in
the store.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .. import Registry
from .grid import ExperimentGrid

GridFactory = Callable[..., ExperimentGrid]

GRID_FACTORIES: Registry[GridFactory] = Registry("grid")
register_grid = GRID_FACTORIES.register


def available_grids() -> List[str]:
    return sorted(GRID_FACTORIES)


def get_grid(name: str, quick: bool = False) -> ExperimentGrid:
    return GRID_FACTORIES[name](quick)


def get_grids(names: Sequence[str], quick: bool = False) -> List[ExperimentGrid]:
    return [get_grid(name, quick) for name in (names or available_grids())]


# ----------------------------------------------------------- the exhibits
@register_grid("exhibits")
def exhibits_grid(quick: bool = False) -> ExperimentGrid:
    """All 15 paper exhibits, one point each (Figs 1–16, Tables 1–2)."""
    from ..analysis.report import EXHIBIT_ORDER

    return ExperimentGrid(
        name="exhibits",
        driver="repro.lab.drivers:run_exhibit",
        domains={"exhibit": list(EXHIBIT_ORDER)},
        base={"quick": quick},
        description="every paper exhibit driver, checks recorded per point",
    )


# ------------------------------------------------------------ the traffic
@register_grid("traffic-scenarios")
def traffic_scenarios_grid(quick: bool = False) -> ExperimentGrid:
    """Every registered traffic scenario once, on the functional testbed."""
    from ..traffic import available_scenarios

    scenarios = available_scenarios()
    if quick:
        scenarios = [s for s in scenarios if s not in ("churn",)]
    return ExperimentGrid(
        name="traffic-scenarios",
        driver="repro.lab.drivers:traffic_scenario_point",
        domains={"scenario": scenarios},
        base={"backend": "functional", "audit": True},
        description="each traffic scenario end-to-end, invariants audited",
    )


@register_grid("traffic-load")
def traffic_load_grid(
    quick: bool = False,
    scenario: str = "rpc",
    loads: Optional[Sequence[float]] = None,
    backend: str = "model",
    seed: Optional[int] = None,
) -> ExperimentGrid:
    """Offered-load sweep of one scenario; ``traffic sweep`` runs this grid."""
    if loads is None:
        loads = [1.0, 4.0, 12.0] if quick else [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0]
    return ExperimentGrid(
        name="traffic-load",
        driver="repro.lab.drivers:traffic_scenario_point",
        # float(): a load spelled 1 and one spelled 1.0 are the same run id
        domains={"load_scale": sorted(float(load) for load in loads)},
        base={"scenario": scenario, "backend": backend},
        seeds=None if seed is None else [seed],
        description="latency-vs-load curve points (model backend, dense)",
    )


@register_grid("churn-rate")
def churn_rate_grid(quick: bool = False) -> ExperimentGrid:
    """Connections/s vs churn concurrency (per-request lifecycle)."""
    return ExperimentGrid(
        name="churn-rate",
        driver="repro.lab.drivers:traffic_churn_point",
        domains={"concurrency": [1, 2, 4, 8]},
        base={"connections": 6 if quick else 12},
        description="short-connection churn rate scales with concurrency",
    )


# ------------------------------------------------------------- the fabric
@register_grid("fabric-incast")
def fabric_incast_grid(quick: bool = False) -> ExperimentGrid:
    """Incast on the F4T backend across fan-in sizes (``repro.fabric``)."""
    return ExperimentGrid(
        name="fabric-incast",
        driver="repro.lab.drivers:fabric_point",
        domains={"num_hosts": [4] if quick else [4, 8, 12]},
        base={"scenario": "incast", "backend": "f4t", "seed": 0},
        description="N-1 responses collide at one egress port; goodput, "
        "p99 and switch drops vs fan-in (model-backed switch)",
    )


@register_grid("fabric-backends")
def fabric_backends_grid(
    quick: bool = False,
    scenario: str = "incast",
    backends: Optional[Sequence[str]] = None,
    num_hosts: Optional[int] = None,
    seed: Optional[int] = None,
    load_scale: float = 1.0,
) -> ExperimentGrid:
    """Offload backends head-to-head on one fabric scenario; ``fabric
    sweep`` runs this grid (all four backends, 8 hosts, by default)."""
    from ..fabric import available_backends

    return ExperimentGrid(
        name="fabric-backends",
        driver="repro.lab.drivers:fabric_point",
        domains={"backend": list(backends or available_backends())},
        base={
            "scenario": scenario,
            "num_hosts": num_hosts or (4 if quick else 8),
            "load_scale": load_scale,
        },
        seeds=None if seed is None else [seed],
        description="f4t vs flextoe vs pno vs linux_stack on one incast "
        "(f4t paper-backed, soft backends model-backed)",
    )


@register_grid("shard-workers")
def shard_workers_grid(quick: bool = False) -> ExperimentGrid:
    """The churn shard at 1/2/4 workers (``repro.shard``).

    Every row must land on the same ``fingerprint_prefix`` — the grid
    is the persisted form of ``repro shard sweep``'s worker-count
    determinism check, with wall time and RSS alongside.
    """
    return ExperimentGrid(
        name="shard-workers",
        driver="repro.lab.drivers:shard_point",
        domains={"workers": [1, 2] if quick else [1, 2, 4]},
        base={"scenario": "churn", "seed": 0},
        description="merged fingerprint is worker-count invariant; "
        "wall time and per-worker RSS vs process count",
    )


# ---------------------------------------------------------- the ablations
@register_grid("ablation-coalescing")
def ablation_coalescing_grid(quick: bool = False) -> ExperimentGrid:
    """Event coalescing on/off for bulk same-flow traffic (§4.4.1)."""
    return ExperimentGrid(
        name="ablation-coalescing",
        driver="repro.lab.drivers:ablation_header_point",
        domains={"coalescing": [True, False]},
        base={
            "num_fpcs": 1,
            "workload": "bulk",
            "cycles": 4_000 if quick else 10_000,
        },
        description="coalescing lifts same-flow bulk past the 125M FPC limit",
    )


@register_grid("ablation-fpc-count")
def ablation_fpc_count_grid(quick: bool = False) -> ExperimentGrid:
    """Different-flow throughput vs FPC count (§4.4.2)."""
    return ExperimentGrid(
        name="ablation-fpc-count",
        driver="repro.lab.drivers:ablation_header_point",
        domains={"num_fpcs": [1, 2, 4, 8]},
        base={
            "coalescing": False,
            "workload": "rr",
            "offered": 1.2e9,
            "cycles": 4_000 if quick else 10_000,
        },
        description="round-robin event rate scales with FPCs to the routing cap",
    )


@register_grid("ablation-coalesce-depth")
def ablation_coalesce_depth_grid(quick: bool = False) -> ExperimentGrid:
    """Merge rate vs offered bulk load on the coalesce FIFOs (§4.4.1)."""
    return ExperimentGrid(
        name="ablation-coalesce-depth",
        driver="repro.lab.drivers:ablation_header_point",
        domains={"offered": [100e6, 300e6, 600e6, 928e6]},
        base={
            "num_fpcs": 1,
            "coalescing": True,
            "workload": "bulk",
            "flows": 24,
            "cycles": 3_000 if quick else 8_000,
        },
        description="deeper backlogs merge more; consumed tracks offered",
    )


@register_grid("ablation-mss")
def ablation_mss_grid(quick: bool = False) -> ExperimentGrid:
    """Functional goodput vs maximum segment size (78 B overhead, §5.1)."""
    return ExperimentGrid(
        name="ablation-mss",
        driver="repro.lab.drivers:ablation_mss_point",
        domains={"mss": [256, 512, 1460]},
        base={"total_bytes": 100_000 if quick else 300_000},
        description="goodput tracks link.max_goodput_gbps(mss) across MSS",
    )


@register_grid("ablation-tcb-cache")
def ablation_tcb_cache_grid(quick: bool = False) -> ExperimentGrid:
    """Memory-manager TCB cache size vs DRAM swap rate (§4.3.1)."""
    return ExperimentGrid(
        name="ablation-tcb-cache",
        driver="repro.lab.drivers:ablation_tcb_cache_point",
        domains={"cache_entries": [64, 512, 4096]},
        base={"flows": 4096, "transactions": 500 if quick else 2000},
        description="a covering cache turns swaps into bare write-backs",
    )


@register_grid("ablation-matrix")
def ablation_matrix_grid(quick: bool = False) -> ExperimentGrid:
    """The 12-point scheduler/FPC design matrix (FlexTOE-style sweep).

    FPC count x coalescing x workload — every intermediate design of
    Fig 16b plus the combinations the paper skips, in one grid.  This is
    the showcase sweep for parallel execution: 12 independent
    cycle-simulation points.
    """
    return ExperimentGrid(
        name="ablation-matrix",
        driver="repro.lab.drivers:ablation_header_point",
        domains={
            "num_fpcs": [1, 2, 8],
            "coalescing": [False, True],
            "workload": ["bulk", "rr"],
        },
        base={"cycles": 3_000 if quick else 10_000},
        description="FPC count x coalescing x workload, 12 points",
    )


@register_grid("mem-geometry")
def mem_geometry_grid(quick: bool = False, seed: int = 1234) -> ExperimentGrid:
    """TCB cache geometry x sketch width x churn (repro.mem).

    The replay-level ablation behind the ROADMAP's million-flow memory
    question: which cache organisation (and how much sketch state)
    beats the paper's direct-mapped cache once connections churn.
    ``mem sweep`` runs this grid.  Every non-direct geometry keeps the
    baseline's 512-line capacity, so the comparison isolates
    organisation, not size.
    """
    return ExperimentGrid(
        name="mem-geometry",
        driver="repro.mem.sweep:run_mem_point",
        domains={
            "churn": [0.2, 0.6],
            "sketch_width": [256, 1024],
            "geometry": [
                "512x1:direct",
                "128x4:lru",
                "128x4:slru",
                "128x4:freq",
                "64x4:lru/256x1:direct",
            ],
        },
        base={"sketch": "countmin", "events": 4_000 if quick else 20_000},
        seeds=[seed],
        description="cache organisation vs DRAM charges under churn",
    )
