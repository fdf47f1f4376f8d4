"""Fabric scenario presets: who talks to whom across the switch.

A :class:`FabricScenario` describes an N-host communication pattern in
one of two modes:

* ``rounds`` — barrier-synchronized block transfers, the classic
  partition/aggregate shape.  ``incast`` (N-1 servers answer one
  aggregator at once, fan-*in* congestion at its egress port) and
  ``outcast`` (one source blasts N-1 receivers, fan-*out* serialization
  at its uplink) are its two presets.
* ``openloop`` — scheduled request arrivals from :mod:`repro.traffic`'s
  seeded arrival processes and size distributions.  ``flash_crowd``
  ramps every client onto one server mid-run; ``zipf_fanout`` spreads
  requests over servers by Zipf popularity (CDN-style skew), so the hot
  server's port saturates first.

Every random decision — arrival times, sizes, client/server picks —
comes from :func:`~repro.net.wire.derive_seed` streams under the
scenario's single seed, so one seed replays one run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

from .. import Registry
from ..traffic.arrivals import ArrivalProcess, FlashCrowd, Poisson
from ..traffic.sizes import Fixed, SizeDistribution, Zipf
from .switch import SwitchConfig


@dataclass(frozen=True)
class FabricScenario:
    """One N-host fabric communication pattern (see module docstring)."""

    name: str
    description: str = ""
    num_hosts: int = 8
    seed: int = 0
    #: ``rounds`` (barrier-synchronized blocks) or ``openloop``.
    mode: str = "rounds"
    # -- rounds mode --------------------------------------------------
    rounds: int = 3
    block_bytes: int = 128 * 1024
    request_bytes: int = 64
    #: False = incast (servers answer host 0); True = outcast (host 0
    #: pushes blocks outward).
    reverse: bool = False
    # -- openloop mode ------------------------------------------------
    arrival: Optional[ArrivalProcess] = None
    request: SizeDistribution = field(default_factory=lambda: Fixed(256))
    response: SizeDistribution = field(default_factory=lambda: Fixed(4096))
    duration_s: float = 400e-6
    #: ``fixed`` — every request targets host 0; ``zipf`` — the server
    #: is sampled by Zipf popularity over all hosts but the client.
    server_select: str = "fixed"
    zipf_s: float = 1.2
    # -- the switch ---------------------------------------------------
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    server_port: int = 9000

    def __post_init__(self) -> None:
        if self.num_hosts < 2:
            raise ValueError(f"{self.name}: need at least 2 hosts")
        if self.mode not in ("rounds", "openloop"):
            raise ValueError(f"{self.name}: unknown mode {self.mode!r}")
        if self.mode == "openloop" and self.arrival is None:
            raise ValueError(f"{self.name}: openloop mode needs arrival=")
        if self.server_select not in ("fixed", "zipf"):
            raise ValueError(
                f"{self.name}: unknown server_select {self.server_select!r}"
            )

    def with_seed(self, seed: int) -> "FabricScenario":
        return replace(self, seed=seed)

    def with_hosts(self, num_hosts: int) -> "FabricScenario":
        return replace(self, num_hosts=num_hosts)

    def describe(self) -> str:
        if self.mode == "rounds":
            shape = "outcast fan-out" if self.reverse else "incast fan-in"
            detail = (
                f"{self.rounds} rounds x {self.block_bytes} B blocks, {shape}"
            )
        else:
            detail = (
                f"{self.arrival.describe()}, req={self.request.describe()}, "
                f"resp={self.response.describe()}, "
                f"servers={self.server_select}"
            )
        return (
            f"{self.name}: {self.description or detail} "
            f"[{self.num_hosts} hosts, {self.switch.partition} buffer]"
        )


# ------------------------------------------------------------- the registry
FabricScenarioFactory = Callable[[], FabricScenario]

FABRIC_SCENARIO_FACTORIES: Registry[FabricScenarioFactory] = Registry(
    "fabric scenario"
)
register_fabric_scenario = FABRIC_SCENARIO_FACTORIES.register


def available_fabric_scenarios() -> Tuple[str, ...]:
    return tuple(sorted(FABRIC_SCENARIO_FACTORIES))


def get_fabric_scenario(
    name: str,
    num_hosts: Optional[int] = None,
    seed: Optional[int] = None,
) -> FabricScenario:
    scenario = FABRIC_SCENARIO_FACTORIES[name]()
    if num_hosts is not None:
        scenario = scenario.with_hosts(num_hosts)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


# ------------------------------------------------------------- the presets
@register_fabric_scenario("incast")
def incast_scenario() -> FabricScenario:
    """Partition/aggregate fan-in: N-1 synchronized block responses."""
    return FabricScenario(
        name="incast",
        description=(
            "one aggregator requests a block from every server per round; "
            "all responses collide at its egress port"
        ),
        mode="rounds",
        rounds=3,
        block_bytes=128 * 1024,
        switch=SwitchConfig(ecn_threshold_bytes=96 * 1024),
    )


@register_fabric_scenario("outcast")
def outcast_scenario() -> FabricScenario:
    """The mirror image: one source pushes blocks to every receiver."""
    return FabricScenario(
        name="outcast",
        description=(
            "host 0 pushes a block to every receiver per round; its own "
            "uplink serializes the fan-out"
        ),
        mode="rounds",
        rounds=3,
        block_bytes=128 * 1024,
        reverse=True,
    )


@register_fabric_scenario("flash_crowd")
def flash_crowd_scenario() -> FabricScenario:
    """Every client ramps onto one server mid-run (hot-object spike)."""
    return FabricScenario(
        name="flash_crowd",
        description=(
            "open-loop requests from all clients to host 0, with a "
            "mid-run flash-crowd rate ramp"
        ),
        mode="openloop",
        arrival=FlashCrowd(
            base_rate=30e3,
            peak_multiplier=6.0,
            ramp_start_s=120e-6,
            ramp_duration_s=150e-6,
        ),
        request=Fixed(128),
        response=Fixed(8 * 1024),
        duration_s=400e-6,
        server_select="fixed",
        switch=SwitchConfig(ecn_threshold_bytes=128 * 1024),
    )


@register_fabric_scenario("zipf_fanout")
def zipf_fanout_scenario() -> FabricScenario:
    """CDN-style skew: Zipf server popularity, Zipf object sizes."""
    return FabricScenario(
        name="zipf_fanout",
        description=(
            "Poisson requests to Zipf-popular servers with heavy-tailed "
            "object sizes; the hot server's port saturates first"
        ),
        mode="openloop",
        arrival=Poisson(rate=60e3),
        request=Fixed(128),
        response=Zipf(s=1.1, minimum=1024, maximum=64 * 1024),
        duration_s=400e-6,
        server_select="zipf",
        zipf_s=1.2,
    )
