"""The FlowHeat advisor: sketch estimates driving placement decisions.

F4T migrates a flow between FPCs only after a queue already backed up
(§4.3.2, Fig 6) — *reactive*.  FlowHeat wraps one frequency sketch,
records every scheduler submission, and answers two questions in O(1):

* ``is_hot(flow)`` — is this flow a predicted heavy hitter?  The
  scheduler's *predictive* policy declines congestion migrations for
  hot flows (moving a heavy hitter thrashes its FPC CAM state and
  usually re-congests the target), which measurably cuts migration
  count on Zipf-skewed workloads.
* ``estimate(flow)`` — relative heat for victim selection, so eviction
  picks the sketch-coldest resident instead of oldest-``last_active``.

``POLICY_REACTIVE`` keeps the paper's behaviour and is the default
everywhere; no pinned fingerprint sees the advisor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

from .sketch import Sketch

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import TraceBus

#: The paper-faithful policy: migrate only on observed congestion.
POLICY_REACTIVE = "reactive"
#: Sketch-driven policy: placement acts on predicted heavy hitters.
POLICY_PREDICTIVE = "predictive"
POLICIES = (POLICY_REACTIVE, POLICY_PREDICTIVE)


class FlowHeat:
    """Heat oracle over a shared frequency sketch.

    ``hot_factor`` sets the heavy-hitter bar as a multiple of the
    uniform share: a flow is hot once its estimate exceeds
    ``hot_factor * total / max(distinct_seen, 1)``.  ``min_total``
    suppresses verdicts until the sketch has seen enough of the stream
    to mean anything (everything is cold during warmup).
    """

    hot_factor = 4.0
    min_total = 256

    def __init__(self, sketch: Sketch) -> None:
        self.sketch = sketch
        self.records = 0
        self.hot_checks = 0
        self.hot_hits = 0
        self._distinct = 0
        self._seen_probe: Set[int] = set()
        #: Optional TraceBus sink (obs wires this on the "engine.mem"
        #: layer); None keeps the hot path allocation-free.
        self.trace: Optional["TraceBus"] = None
        self.trace_name = "flowheat"
        #: Engine wiring points this at the integer-ps engine clock.
        self.time_ps_fn: Callable[[], int] = lambda: 0

    # ------------------------------------------------------------- feed
    def record(self, flow_id: int) -> None:
        """One scheduler submission for ``flow_id``."""
        self.records += 1
        if flow_id not in self._seen_probe:
            self._seen_probe.add(flow_id)
            self._distinct += 1
        self.sketch.update(flow_id)

    # ---------------------------------------------------------- queries
    def estimate(self, flow_id: int) -> int:
        return self.sketch.estimate(flow_id)

    @property
    def hot_threshold(self) -> float:
        total = self.sketch.total
        if total < self.min_total:
            return float("inf")
        return self.hot_factor * total / max(self._distinct, 1)

    def is_hot(self, flow_id: int) -> bool:
        self.hot_checks += 1
        estimate = self.sketch.estimate(flow_id)
        hot = estimate > self.hot_threshold
        if hot:
            self.hot_hits += 1
            if self.trace is not None:
                self.trace.emit(
                    self.time_ps_fn(), "engine.mem", self.trace_name,
                    "hot", flow_id, str(estimate),
                )
        return hot

    def coldness_key(self, flow_id: int, last_active: int) -> Tuple[int, int]:
        """Victim-selection key: sketch-coldest first, LRU tie-break."""
        return (self.sketch.estimate(flow_id), last_active)

    def stats(self) -> Dict[str, int]:
        return {
            "records": self.records,
            "distinct": self._distinct,
            "hot_checks": self.hot_checks,
            "hot_hits": self.hot_hits,
            "sketch_total": self.sketch.total,
        }


def resolve_policy(policy: Optional[str]) -> str:
    """Normalize/validate a placement policy name (None -> reactive)."""
    if policy is None:
        return POLICY_REACTIVE
    if policy not in POLICIES:
        raise ValueError(
            f"unknown placement policy {policy!r}; available: "
            + ", ".join(POLICIES)
        )
    return policy
