"""The TCB cache: one direct-mapped level in front of DRAM (§4.3.1).

A DRAM-resident flow's TCB line lives at index ``flow_id % entries``;
the flow id is the line's tag.  A miss fills that line, writing back
the flow it displaces.  The caller (the memory manager) charges the
DRAM channel from what :meth:`TcbCacheHierarchy.access` returns: one
line fill per miss plus one write-back per displaced line, exactly the
accounting the Fig 13 DRAM curve depends on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class TcbCacheHierarchy:
    """The paper's direct-mapped TCB cache; flow ids are the line tags."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"a TCB cache needs at least one line, got {entries}")
        self.entries = entries
        #: Per line, the flow whose TCB it holds, or None.
        self._lines: List[Optional[int]] = [None] * entries
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return self.entries - self._lines.count(None)

    def __contains__(self, flow_id: int) -> bool:
        return self._lines[flow_id % self.entries] == flow_id

    def access(self, flow_id: int) -> Tuple[bool, Optional[int]]:
        """One TCB access: (hit?, the flow a miss wrote back or None)."""
        index = flow_id % self.entries
        occupant = self._lines[index]
        if occupant == flow_id:
            self.hits += 1
            return True, None
        self.misses += 1
        self._lines[index] = flow_id
        if occupant is not None:
            self.writebacks += 1
        return False, occupant

    def invalidate(self, flow_id: int) -> bool:
        """Drop a flow's line (its TCB left DRAM); True if one existed."""
        index = flow_id % self.entries
        if self._lines[index] != flow_id:
            return False
        self._lines[index] = None
        self.invalidations += 1
        return True

    def stats(self) -> Dict[str, int]:
        """Flat scalars for ``stats_report`` / metrics ingestion."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "occupancy": len(self),
            "capacity": self.entries,
        }
