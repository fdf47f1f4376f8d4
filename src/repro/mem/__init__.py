"""repro.mem — the TCB cache in front of DRAM-resident flows.

The paper's §4.3 memory scheme is a cuckoo flow lookup, one
direct-mapped SRAM cache of TCB lines in front of the DRAM that holds
the flows the FPCs have no slot for, and congestion-reactive FPC
migration.  :class:`~repro.mem.hierarchy.TcbCacheHierarchy` is that
cache; :class:`~repro.engine.memory_manager.MemoryManager` charges the
DRAM channel for its misses and write-backs.
"""

from .hierarchy import TcbCacheHierarchy

__all__ = ["TcbCacheHierarchy"]
