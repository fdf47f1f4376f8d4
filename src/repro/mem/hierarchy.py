"""The multi-level set-associative TCB cache model.

One :class:`TcbCacheHierarchy` replaces the hardcoded direct-mapped
list inside :class:`~repro.engine.memory_manager.MemoryManager`.  The
model is *exclusive*: a flow's TCB line lives in at most one level.  A
full miss fills level 0; the displaced victim demotes one level down,
cascading until a free way or — at the last level — a DRAM write-back.
A hit at a lower level promotes the line back to level 0 through the
same cascade.  The caller (the memory manager) charges the DRAM channel
from the returned :class:`AccessOutcome`: one line fill per miss plus
one write-back per line leaving the hierarchy, exactly the §4.3.1
accounting the Fig 13 DRAM curve depends on.

Eviction within a set is pluggable per level:

* ``direct`` — ways must be 1; the paper-faithful compat mode.  The
  default geometry (1 level × 1 way × ``DEFAULT_CACHE_ENTRIES`` sets)
  reproduces the pre-hierarchy hit/miss/write-back sequence bit for
  bit, which the pinned obs trace fingerprints enforce.
* ``lru`` — least-recently-used within the set.
* ``slru`` — segmented LRU: lines enter on probation, a hit promotes
  to the protected segment (capped at half the ways), victims come
  from probation first.  Scan-resistant against one-shot churn flows.
* ``freq`` — frequency-aware: the victim is the way with the smallest
  sketch estimate (ties fall back to LRU order), so predicted heavy
  hitters survive churn floods that thrash a direct-mapped cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .sketch import Sketch

#: Recognized per-level eviction policies.
EVICTION_POLICIES = ("direct", "lru", "slru", "freq")


@dataclass(frozen=True)
class CacheLevelSpec:
    """One level's geometry: ``sets`` × ``ways`` with an eviction policy."""

    sets: int
    ways: int = 1
    policy: str = "direct"

    def __post_init__(self) -> None:
        if self.sets < 1 or self.ways < 1:
            raise ValueError(
                f"sets/ways must be >= 1, got {self.sets}x{self.ways}"
            )
        if self.policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.policy!r}; available: "
                + ", ".join(EVICTION_POLICIES)
            )
        if self.policy == "direct" and self.ways != 1:
            raise ValueError(
                f"direct-mapped levels are 1-way, got ways={self.ways}"
            )

    @property
    def entries(self) -> int:
        return self.sets * self.ways

    def render(self) -> str:
        return f"{self.sets}x{self.ways}:{self.policy}"


@dataclass(frozen=True)
class CacheGeometry:
    """An ordered tuple of levels, level 0 fastest/first."""

    levels: Tuple[CacheLevelSpec, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a cache geometry needs at least one level")

    @classmethod
    def direct_mapped(cls, entries: int) -> "CacheGeometry":
        """The paper-compat geometry: one direct-mapped level."""
        return cls((CacheLevelSpec(sets=entries, ways=1, policy="direct"),))

    @classmethod
    def parse(cls, spec: str) -> "CacheGeometry":
        """Parse ``SETSxWAYS:POLICY[/...]`` (a bare int means direct).

        Examples: ``512`` · ``128x4:lru`` · ``64x4:freq/1024x1:direct``.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty cache geometry spec")
        if spec.isdigit():
            return cls.direct_mapped(int(spec))
        levels: List[CacheLevelSpec] = []
        for part in spec.split("/"):
            shape, _, policy = part.partition(":")
            sets_text, _, ways_text = shape.partition("x")
            try:
                sets = int(sets_text)
                ways = int(ways_text) if ways_text else 1
            except ValueError:
                raise ValueError(
                    f"bad cache level {part!r}; expected SETSxWAYS:POLICY"
                ) from None
            levels.append(
                CacheLevelSpec(sets=sets, ways=ways, policy=policy or "direct")
            )
        return cls(tuple(levels))

    @property
    def capacity(self) -> int:
        return sum(level.entries for level in self.levels)

    @property
    def uses_sketch(self) -> bool:
        return any(level.policy == "freq" for level in self.levels)

    def render(self) -> str:
        return "/".join(level.render() for level in self.levels)


@dataclass
class AccessOutcome:
    """What one :meth:`TcbCacheHierarchy.access` did, for the caller to
    charge and trace.

    ``writebacks`` are flows whose line left the hierarchy entirely (a
    DRAM write each); ``fills`` are (level, flow) insertions including
    demotions; a miss additionally costs the caller one DRAM line fill.
    """

    hit_level: Optional[int] = None
    promoted_from: Optional[int] = None
    fills: List[Tuple[int, int]] = field(default_factory=list)
    writebacks: List[int] = field(default_factory=list)

    @property
    def hit(self) -> bool:
        return self.hit_level is not None


class TcbCacheHierarchy:
    """The exclusive multi-level cache; flow ids are the line tags."""

    def __init__(
        self,
        geometry: CacheGeometry,
        sketch: Optional[Sketch] = None,
        own_updates: bool = True,
    ) -> None:
        self.geometry = geometry
        self.sketch = sketch
        #: When a shared sketch is fed elsewhere (the scheduler's
        #: FlowHeat advisor records every event), the hierarchy only
        #: reads estimates; standalone it feeds the sketch itself.
        self.own_updates = own_updates
        if geometry.uses_sketch and sketch is None:
            raise ValueError(
                "geometry uses a freq policy but no sketch was provided"
            )
        #: Per level: per set, occupant flow ids in LRU order (MRU last).
        self._sets: List[List[List[int]]] = [
            [[] for _ in range(level.sets)] for level in geometry.levels
        ]
        #: flow id -> level index (exclusive hierarchy: one copy).
        self._where: Dict[int, int] = {}
        #: SLRU protected-segment membership.
        self._protected: Set[int] = set()

        levels = len(geometry.levels)
        self.hits = 0
        self.misses = 0
        self.level_hits = [0] * levels
        self.level_fills = [0] * levels
        self.level_evictions = [0] * levels
        self.level_promotions = [0] * levels
        self.writebacks = 0
        self.invalidations = 0

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._where)

    def contains(self, flow_id: int) -> bool:
        return flow_id in self._where

    # ------------------------------------------------------------- access
    def _bucket(self, level: int, flow_id: int) -> List[int]:
        spec = self.geometry.levels[level]
        return self._sets[level][flow_id % spec.sets]

    def access(self, flow_id: int) -> AccessOutcome:
        """One TCB access through the hierarchy; see :class:`AccessOutcome`."""
        if self.sketch is not None and self.own_updates:
            self.sketch.update(flow_id)
        outcome = AccessOutcome()
        level = self._where.get(flow_id)
        if level is not None:
            self.hits += 1
            self.level_hits[level] += 1
            outcome.hit_level = level
            bucket = self._bucket(level, flow_id)
            spec = self.geometry.levels[level]
            if level == 0:
                self._touch(bucket, spec, flow_id)
            else:
                # Promote to level 0 through the demotion cascade.
                bucket.remove(flow_id)
                del self._where[flow_id]
                self._protected.discard(flow_id)
                self.level_promotions[level] += 1
                outcome.promoted_from = level
                self._insert(0, flow_id, outcome)
            return outcome
        self.misses += 1
        self._insert(0, flow_id, outcome)
        return outcome

    def _touch(self, bucket: List[int], spec: CacheLevelSpec, flow_id: int) -> None:
        """Refresh recency (and SLRU protection) on a same-level hit."""
        if spec.policy == "direct":
            return
        bucket.remove(flow_id)
        bucket.append(flow_id)
        if spec.policy == "slru" and flow_id not in self._protected:
            self._protected.add(flow_id)
            cap = max(1, spec.ways // 2)
            protected_here = [f for f in bucket if f in self._protected]
            if len(protected_here) > cap:
                # Demote the LRU protected line back to probation.
                self._protected.discard(protected_here[0])

    def _insert(self, level: int, flow_id: int, outcome: AccessOutcome) -> None:
        spec = self.geometry.levels[level]
        bucket = self._bucket(level, flow_id)
        if len(bucket) >= spec.ways:
            victim = self._pick_victim(spec, bucket)
            bucket.remove(victim)
            del self._where[victim]
            self._protected.discard(victim)
            self.level_evictions[level] += 1
            if level + 1 < len(self.geometry.levels):
                self._insert(level + 1, victim, outcome)
            else:
                self.writebacks += 1
                outcome.writebacks.append(victim)
        bucket.append(flow_id)
        self._where[flow_id] = level
        self.level_fills[level] += 1
        outcome.fills.append((level, flow_id))

    def _pick_victim(self, spec: CacheLevelSpec, bucket: List[int]) -> int:
        if spec.policy in ("direct", "lru"):
            return bucket[0]
        if spec.policy == "slru":
            for candidate in bucket:  # LRU order; probation first
                if candidate not in self._protected:
                    return candidate
            return bucket[0]
        # freq: smallest sketch estimate survives last; ties -> LRU order.
        estimate = self.sketch.estimate
        return min(bucket, key=lambda f: (estimate(f), bucket.index(f)))

    # --------------------------------------------------------- invalidate
    def invalidate(self, flow_id: int) -> bool:
        """Drop a flow's line (its TCB left DRAM); True if one existed."""
        level = self._where.pop(flow_id, None)
        if level is None:
            return False
        self._bucket(level, flow_id).remove(flow_id)
        self._protected.discard(flow_id)
        self.invalidations += 1
        return True

    # ------------------------------------------------------------- stats
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def level_stats(self) -> List[Dict[str, int]]:
        return [
            {
                "hits": self.level_hits[i],
                "fills": self.level_fills[i],
                "evictions": self.level_evictions[i],
                "promotions": self.level_promotions[i],
            }
            for i in range(len(self.geometry.levels))
        ]

    def stats(self) -> Dict[str, int]:
        """Flat scalars for ``stats_report`` / metrics ingestion."""
        flat: Dict[str, int] = {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "occupancy": len(self._where),
            "capacity": self.geometry.capacity,
        }
        for index, stats in enumerate(self.level_stats()):
            for key, value in stats.items():
                flat[f"l{index}_{key}"] = value
        return flat
