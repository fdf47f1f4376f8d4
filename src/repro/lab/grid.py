"""Experiment grids: a driver callable plus a parameter space.

An :class:`ExperimentGrid` names a driver (a dotted ``module:function``
path, so worker processes can re-resolve it without pickling code), a
parameter space (cartesian ``domains``, explicit ``points``, optional
``seeds``), and expands into :class:`GridPoint` instances.  Each point's
``run_id`` is a content hash of everything that defines the computation
— experiment name, driver path, parameters, seed — so re-declaring the
same grid always maps onto the same store rows (that is what makes
resume and incremental caching work), while changing any parameter
yields a fresh id.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..analysis.reporting import ExperimentResult


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def content_hash(payload: Mapping[str, Any], length: int = 16) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:length]


def driver_path(driver: Callable[..., Any]) -> str:
    """The importable ``module:qualname`` path of a driver callable."""
    return f"{driver.__module__}:{driver.__qualname__}"


def resolve_driver(path: str) -> Callable[..., Any]:
    """Inverse of :func:`driver_path`; raises ImportError/AttributeError."""
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise ValueError(f"driver path {path!r} is not 'module:function'")
    target: Any = import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"driver {path!r} resolved to non-callable {target!r}")
    return target


@dataclass(frozen=True)
class GridPoint:
    """One concrete run: resolved parameters plus its stable identity."""

    experiment: str
    driver: str
    params: Mapping[str, Any]
    seed: Optional[int] = None

    @property
    def run_id(self) -> str:
        return content_hash(
            {
                "experiment": self.experiment,
                "driver": self.driver,
                "params": dict(self.params),
                "seed": self.seed,
            }
        )

    def kwargs(self) -> Dict[str, Any]:
        """The keyword arguments the driver is called with."""
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs


@dataclass
class PointResult:
    """A driver's normalized output: numeric scalars + optional checks."""

    scalars: Dict[str, float]
    #: name -> {"paper", "measured", "tolerance", "passes"}
    checks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Optional :class:`~repro.obs.metrics.MetricsSnapshot` rows
    #: (``[{"name", "kind", "labels", "value"}, ...]``) — the full
    #: labeled-metric view of the run, persisted alongside scalars.
    metrics: Optional[List[Dict[str, Any]]] = None

    @property
    def all_checks_pass(self) -> bool:
        return all(check["passes"] for check in self.checks.values())

    def metrics_snapshot(self) -> Optional["Any"]:
        """Decode :attr:`metrics` back into a MetricsSnapshot, if present."""
        if self.metrics is None:
            return None
        from ..obs.metrics import MetricsSnapshot

        return MetricsSnapshot.from_json(json.dumps(self.metrics))


def normalize_result(value: Any) -> PointResult:
    """Coerce a driver's return value into a :class:`PointResult`.

    Drivers may return an :class:`~repro.analysis.reporting.ExperimentResult`
    (the exhibit drivers do) or a flat mapping of scalar names to numbers
    (the ablation point drivers do).
    """
    if isinstance(value, PointResult):
        return value
    if isinstance(value, ExperimentResult):
        scalars = {name: float(check.measured) for name, check in value.checks.items()}
        checks = {
            name: {
                "paper": float(check.paper),
                "measured": float(check.measured),
                "tolerance": float(check.tolerance),
                "passes": bool(check.passes),
            }
            for name, check in value.checks.items()
        }
        return PointResult(scalars=scalars, checks=checks)
    if isinstance(value, Mapping):
        scalars: Dict[str, float] = {}
        for name, scalar in value.items():
            if isinstance(scalar, bool) or not isinstance(scalar, (int, float)):
                raise TypeError(
                    f"driver scalar {name!r} is {type(scalar).__name__}, "
                    "expected int/float (return an ExperimentResult for "
                    "anything richer)"
                )
            scalars[str(name)] = scalar  # counts stay ints: 9, not 9.0
        return PointResult(scalars=scalars)
    raise TypeError(
        f"driver returned {type(value).__name__}; expected ExperimentResult "
        "or a mapping of scalar names to numbers"
    )


@dataclass
class ExperimentGrid:
    """A named experiment: one driver, many parameter points.

    ``domains`` expands as a cartesian product; ``points`` adds explicit
    parameter dicts verbatim; ``seeds`` replicates every point once per
    seed (the seed is passed to the driver as a ``seed=`` keyword and
    folded into the run id).  ``base`` holds parameters shared by every
    point (a point may override them).
    """

    name: str
    driver: str  # "module:function"; use driver_path() for callables
    domains: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    points: Sequence[Mapping[str, Any]] = field(default_factory=list)
    base: Mapping[str, Any] = field(default_factory=dict)
    seeds: Optional[Sequence[int]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if callable(self.driver):  # convenience: accept the function itself
            self.driver = driver_path(self.driver)

    def _raw_points(self) -> Iterable[Dict[str, Any]]:
        if self.domains:
            names = list(self.domains)
            for values in itertools.product(*(self.domains[n] for n in names)):
                yield dict(zip(names, values))
        for explicit in self.points:
            yield dict(explicit)
        if not self.domains and not self.points:
            yield {}  # a single-point experiment: just the base params

    def expand(self) -> List[GridPoint]:
        """Every concrete point of the grid, in a stable order."""
        expanded: List[GridPoint] = []
        seen: set = set()
        for raw in self._raw_points():
            params = {**self.base, **raw}
            for seed in self.seeds if self.seeds is not None else (None,):
                point = GridPoint(
                    experiment=self.name,
                    driver=self.driver,
                    params=params,
                    seed=seed,
                )
                if point.run_id not in seen:  # overlapping domains/points
                    seen.add(point.run_id)
                    expanded.append(point)
        return expanded

    def call(self, point: GridPoint) -> PointResult:
        """Execute one point in-process (the benches use this directly)."""
        driver = resolve_driver(point.driver)
        return normalize_result(driver(**point.kwargs()))

    def records(self) -> List[Dict[str, Any]]:
        """Every point run in-process, one flat ``{param..., scalar...}``
        mapping each — the rows a sweep verb tabulates."""
        return [
            {**point.kwargs(), **self.call(point).scalars}
            for point in self.expand()
        ]


# ------------------------------------------------------------- provenance
def _git_sha() -> str:
    import os

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
            # resolve the checkout this code was imported from, not the cwd
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def calibration_fingerprint() -> str:
    """Content hash of every calibrated constant the models depend on.

    Folded into each run row's provenance so results can be compared
    across commits: if a calibration constant moves, rows recorded
    before and after are distinguishable even at the same git sha
    (dirty trees) — and identical fingerprints mean the analytic model
    inputs were identical.
    """
    from ..host import calibration

    constants = {
        name: repr(value)
        for name, value in vars(calibration).items()
        if name.isupper()
    }
    return content_hash(constants, length=12)


_PROVENANCE_CACHE: Optional[Dict[str, Any]] = None


def provenance(seed: Optional[int] = None) -> Dict[str, Any]:
    """The provenance fields recorded on every finished run row."""
    global _PROVENANCE_CACHE
    if _PROVENANCE_CACHE is None:
        import repro

        _PROVENANCE_CACHE = {
            "git_sha": _git_sha(),
            "package_version": repro.__version__,
            "calibration_hash": calibration_fingerprint(),
        }
    record = dict(_PROVENANCE_CACHE)
    record["seed"] = seed
    record["recorded_at"] = time.time()
    return record
