"""Declarative traffic scenarios: classes, schedules and the registry.

A :class:`Scenario` composes one or more :class:`TrafficClass` entries —
each an arrival process (or a closed loop), request/response size
distributions and a connection lifecycle — plus optional seeded wire
impairments.  ``schedule()`` expands the open-loop classes into a
concrete, fully replayable request list: every RNG stream is derived
from the scenario's single top-level seed with
:func:`~repro.net.wire.derive_seed`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, List, Optional

from .. import Registry
from ..net.wire import Wire, derive_seed
from .arrivals import ArrivalProcess, FlashCrowd, OnOffBursts, Poisson
from .sizes import Fixed, SizeDistribution, Zipf

PERSISTENT = "persistent"
PER_REQUEST = "per_request"


@dataclass(frozen=True)
class TrafficClass:
    """One traffic class: who arrives when, how big, over what lifecycle.

    Open-loop classes set ``arrival``; closed-loop classes instead set
    ``rounds`` (requests per persistent connection) or ``transactions``
    (total per-request churn transactions).  ``connections`` is the
    persistent pool size, or the concurrency cap for per-request churn.
    """

    name: str
    request: SizeDistribution
    response: SizeDistribution = Fixed(0)
    lifecycle: str = PERSISTENT
    connections: int = 1
    arrival: Optional[ArrivalProcess] = None
    rounds: Optional[int] = None
    transactions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lifecycle not in (PERSISTENT, PER_REQUEST):
            raise ValueError(f"unknown lifecycle {self.lifecycle!r}")
        closed = (self.rounds is not None) or (self.transactions is not None)
        if (self.arrival is None) == (not closed):
            raise ValueError(
                f"class {self.name!r}: set either arrival= (open loop) or "
                "rounds=/transactions= (closed loop), not both/neither"
            )
        if self.connections <= 0:
            raise ValueError(f"class {self.name!r}: connections must be > 0")
        if self.lifecycle == PER_REQUEST and isinstance(self.response, Fixed) \
                and self.response.size_bytes <= 0:
            raise ValueError(
                f"class {self.name!r}: per-request churn is a full "
                "request/response transaction; response bytes must be > 0"
            )

    @property
    def open_loop(self) -> bool:
        return self.arrival is not None

    def describe(self) -> str:
        loop = (
            self.arrival.describe()
            if self.arrival is not None
            else f"closed({self.rounds or self.transactions})"
        )
        return (
            f"{self.name}: {loop}, req={self.request.describe()}, "
            f"resp={self.response.describe()}, {self.lifecycle}"
            f"x{self.connections}"
        )


@dataclass(frozen=True)
class Impairments:
    """Seeded wire fault injection attached to a scenario."""

    drop_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_delay_us: ClassVar[float] = 10.0

    def build_wire(self, seed: int) -> Wire:
        return Wire.impaired(
            seed,
            drop_probability=self.drop_probability,
            reorder_probability=self.reorder_probability,
            reorder_delay_us=self.reorder_delay_us,
        )


@dataclass(frozen=True)
class Request:
    """One concrete scheduled request of an open-loop class."""

    #: Arrival instant in ps, counted from the start of the run.
    time_ps: int
    cls: str
    request_bytes: int
    response_bytes: int
    index: int


@dataclass(frozen=True)
class Scenario:
    """A named, seeded composition of traffic classes."""

    name: str
    classes: List[TrafficClass]
    #: Open-loop arrival horizon in simulated seconds.
    duration_s: float = 500e-6
    seed: int = 0
    impairments: Optional[Impairments] = None
    description: str = ""
    server_port: int = 8000

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError(f"scenario {self.name!r} has no classes")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r}: duplicate class names")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def class_rng(self, cls: TrafficClass, stream: str) -> random.Random:
        return random.Random(
            derive_seed(self.seed, f"{self.name}/{cls.name}/{stream}")
        )

    def schedule(self, load_scale: float = 1.0) -> List[Request]:
        """Every open-loop request, merged across classes, time-sorted.

        ``load_scale`` multiplies every arrival rate (sizes untouched) —
        the lever the latency-vs-load sweep pulls.  Closed-loop classes
        contribute nothing here; the load engine self-paces them.
        """
        requests: List[Request] = []
        for cls in self.classes:
            if not cls.open_loop:
                continue
            arrival = cls.arrival.scaled(load_scale)
            times = arrival.times(
                self.class_rng(cls, "arrivals"), self.duration_s
            )
            req_rng = self.class_rng(cls, "request-sizes")
            resp_rng = self.class_rng(cls, "response-sizes")
            for t in times:
                requests.append(
                    Request(
                        time_ps=t,
                        cls=cls.name,
                        request_bytes=max(1, cls.request.sample(req_rng)),
                        response_bytes=max(0, cls.response.sample(resp_rng)),
                        index=0,  # re-indexed after the merge sort below
                    )
                )
        requests.sort(key=lambda r: (r.time_ps, r.cls))
        return [replace(r, index=i) for i, r in enumerate(requests)]

    def split(self, cells: Optional[int] = None) -> List["Scenario"]:
        """Partition the classes into shard cells (``repro.shard``).

        Every sub-scenario keeps the parent's ``name`` and ``seed``, so
        each class's per-stream RNGs (``class_rng`` derives them from
        ``seed + name/class/stream``) are bit-identical to the unsplit
        run — splitting changes which testbed a class runs on, never
        what traffic it offers.  Classes are dealt round-robin;
        ``cells=None`` (or more cells than classes) gives one class per
        cell, the finest deterministic partition.
        """
        if cells is None or cells > len(self.classes):
            cells = len(self.classes)
        if cells < 1:
            raise ValueError(f"cells must be >= 1, got {cells}")
        return [
            replace(self, classes=list(self.classes[cell::cells]))
            for cell in range(cells)
        ]

    def build_wire(self) -> Optional[Wire]:
        if self.impairments is None:
            return None
        return self.impairments.build_wire(
            derive_seed(self.seed, f"{self.name}/wire")
        )

    def describe(self) -> str:
        lines = [f"{self.name}: {self.description}".rstrip(": ")]
        lines += [f"  {cls.describe()}" for cls in self.classes]
        if self.impairments is not None:
            lines.append(
                f"  wire: drop={self.impairments.drop_probability:g}, "
                f"reorder={self.impairments.reorder_probability:g}"
            )
        return "\n".join(lines)


# ------------------------------------------------------------- the registry
ScenarioFactory = Callable[[], Scenario]

SCENARIO_FACTORIES: Registry[ScenarioFactory] = Registry("scenario")
register_scenario = SCENARIO_FACTORIES.register


def available_scenarios() -> List[str]:
    return sorted(SCENARIO_FACTORIES)


def get_scenario(name: str, seed: Optional[int] = None) -> Scenario:
    scenario = SCENARIO_FACTORIES[name]()
    return scenario if seed is None else scenario.with_seed(seed)


# ------------------------------------------------------------- the presets
@register_scenario("mixed")
def mixed_scenario() -> Scenario:
    """The acceptance scenario: Poisson RPC + Zipf bulk + flash crowd."""
    return Scenario(
        name="mixed",
        description=(
            "Poisson short-RPC class, Zipf heavy-tail bulk class and a "
            "mid-run flash-crowd ramp sharing one testbed"
        ),
        duration_s=400e-6,
        classes=[
            TrafficClass(
                name="rpc",
                arrival=Poisson(rate=150e3),
                request=Fixed(64),
                response=Fixed(256),
                connections=8,
            ),
            TrafficClass(
                name="bulk",
                arrival=Poisson(rate=15e3),
                request=Zipf(minimum=1024, maximum=65536),
                response=Fixed(0),
                connections=2,
            ),
            TrafficClass(
                name="flash",
                arrival=FlashCrowd(
                    base_rate=40e3,
                    peak_multiplier=5.0,
                    ramp_start_s=150e-6,
                    ramp_duration_s=150e-6,
                ),
                request=Fixed(128),
                response=Fixed(128),
                connections=4,
            ),
        ],
    )


@register_scenario("rpc")
def rpc_scenario() -> Scenario:
    """A single Poisson short-RPC class — the simplest open loop."""
    return Scenario(
        name="rpc",
        description="one Poisson 64B-request/256B-response RPC class",
        duration_s=300e-6,
        classes=[
            TrafficClass(
                name="rpc",
                arrival=Poisson(rate=200e3),
                request=Fixed(64),
                response=Fixed(256),
                connections=8,
            )
        ],
    )


@register_scenario("bursts")
def bursts_scenario() -> Scenario:
    """MMPP on/off RPC bursts: same mean load as `rpc`, clumped."""
    return Scenario(
        name="bursts",
        description="on/off (MMPP-2) RPC bursts stressing accept/coalesce queues",
        duration_s=400e-6,
        classes=[
            TrafficClass(
                name="bursty-rpc",
                arrival=OnOffBursts(
                    burst_rate=600e3, mean_on_s=40e-6, mean_off_s=80e-6
                ),
                request=Fixed(64),
                response=Fixed(256),
                connections=8,
            )
        ],
    )


@register_scenario("churn")
def churn_scenario() -> Scenario:
    """Open-loop connection churn: every request is a fresh connection."""
    return Scenario(
        name="churn",
        description=(
            "Poisson per-request churn (generalized apps/shortconn): "
            "connect, request, response, full teardown per arrival"
        ),
        duration_s=20e-3,
        classes=[
            TrafficClass(
                name="churn",
                arrival=Poisson(rate=400.0),
                request=Fixed(64),
                response=Fixed(64),
                lifecycle=PER_REQUEST,
                connections=8,
            )
        ],
    )


@register_scenario("lossy-mixed")
def lossy_mixed_scenario() -> Scenario:
    """The mixed scenario over a seeded 0.5%-loss, reordering wire."""
    base = mixed_scenario()
    return replace(
        base,
        name="lossy-mixed",
        description=base.description + ", over a seeded lossy/reordering wire",
        impairments=Impairments(
            drop_probability=0.005, reorder_probability=0.01
        ),
    )
