"""repro.mem — sketch-driven million-flow memory hierarchy for TCB state.

The paper's §4.2/§4.3 TCB memory scheme (cuckoo lookup, one
direct-mapped SRAM cache in front of DRAM-resident flows,
congestion-reactive FPC migration) is faithful but naive at the
million-connection scale ``repro.shard``'s megaflow preset reaches.
This package is the upgrade path the ROADMAP names, after the SDN
flow-table-lookup and FPGA sketch-acceleration papers in PAPERS.md:

* :mod:`repro.mem.sketch` — streaming frequency sketches (count-min,
  space-saving, exact-counter oracle) with seeded hash families and
  O(1) heavy-hitter queries;
* :mod:`repro.mem.hierarchy` — a multi-level set-associative TCB cache
  model with pluggable eviction (direct-mapped-compat, LRU, SLRU,
  frequency-aware), replacing the hardcoded direct-mapped list inside
  :class:`~repro.engine.memory_manager.MemoryManager`.  The default
  geometry (1 level, 1 way, ``DEFAULT_CACHE_ENTRIES`` sets, direct
  eviction) reproduces the pre-hierarchy behaviour bit for bit — the
  pinned obs trace fingerprints are the oracle;
* :mod:`repro.mem.advisor` — the :class:`FlowHeat` advisor feeding
  sketch estimates into the scheduler so FPC migration and SRAM-vs-DRAM
  placement act on *predicted* heavy hitters before queues back up
  (``placement_policy="predictive"``; ``"reactive"`` is the paper's
  behaviour and the default);
* :mod:`repro.mem.sweep` — the one-geometry stream replay that is the
  point driver of the lab's ``mem-geometry`` grid (which ``repro mem
  sweep`` runs), and the placement-policy A/B behind ``repro mem stats``.
"""

from .advisor import POLICIES, POLICY_PREDICTIVE, POLICY_REACTIVE, FlowHeat
from .hierarchy import (
    AccessOutcome,
    CacheGeometry,
    CacheLevelSpec,
    EVICTION_POLICIES,
    TcbCacheHierarchy,
)
from .sketch import (
    SKETCH_KINDS,
    CountMinSketch,
    ExactOracle,
    SpaceSavingSketch,
    make_sketch,
)

__all__ = [
    "AccessOutcome",
    "CacheGeometry",
    "CacheLevelSpec",
    "CountMinSketch",
    "EVICTION_POLICIES",
    "ExactOracle",
    "FlowHeat",
    "POLICIES",
    "POLICY_PREDICTIVE",
    "POLICY_REACTIVE",
    "SKETCH_KINDS",
    "SpaceSavingSketch",
    "TcbCacheHierarchy",
    "make_sketch",
]
