"""repro.shard — sharded multi-process simulation for million-flow runs.

The fabric's soft stacks and switch are deterministic discrete-event
components, but one Python process tops out around tens of thousands of
concurrent flows.  This package partitions a run into **cells** — fixed
groups of hosts, each owning its slice of the switch (see
:class:`~repro.fabric.switch.CellSwitch`) — and runs the cells
conservatively in lockstep **epochs** bounded by the minimum cross-cell
latency: every packet crosses one uplink propagation delay before it can
reach another cell's admission point, so exchanging wire segments only
at epoch barriers is causally safe and needs no rollback.

Determinism is the contract, not an accident:

* every per-connection schedule is derived from the scenario seed with
  :func:`~repro.net.wire.derive_seed`, identically on both endpoints;
* each cell's event loop orders work by ``(arrival_ps, src, seq)``,
  which is independent of how exchange batches arrive;
* the cell is the unit of simulation — worker processes only *host*
  cells, so the merged trace fingerprint (see
  :func:`~repro.obs.trace.merge_fingerprints`) is a pure function of
  (scenario, seed, cell count), never of the worker count.

Two kinds of sharded runs share one CLI (``python -m repro shard``):

* **fabric shards** (:mod:`~repro.shard.scenarios`): SoftStack hosts on
  a statically partitioned switch, exchanged at epoch barriers — this
  is what the ``megaflow`` preset uses to sustain a million held-open
  connections across worker processes with bounded per-shard memory;
* **traffic shards**: an existing :mod:`repro.traffic` scenario split
  by class (:meth:`~repro.traffic.scenario.Scenario.split`), each cell
  running the unmodified integer-ps kernel testbed + load engine.
"""

from .cell import CellSim
from .runner import (
    CellReport,
    ShardResult,
    ShardWorkerError,
    run_shard,
    run_traffic_shard,
)
from .scenarios import (
    ShardPair,
    ShardScenario,
    available_shard_scenarios,
    get_shard_scenario,
    register_shard_scenario,
)

__all__ = [
    "CellReport",
    "CellSim",
    "ShardPair",
    "ShardResult",
    "ShardScenario",
    "ShardWorkerError",
    "available_shard_scenarios",
    "get_shard_scenario",
    "register_shard_scenario",
    "run_shard",
    "run_traffic_shard",
]
