"""Sharded fabric scenarios: cells, client/server pairs, derived schedules.

A :class:`ShardScenario` names a host population partitioned into
contiguous cells plus a set of client→server :class:`ShardPair` entries.
Everything a pair's two endpoints must agree on is derived, never
exchanged: the connect instants from the scenario seed with
:func:`~repro.net.wire.derive_seed` (the client alone needs them), and
each connection's request and response sizes from its index
(:meth:`ShardPair.framing`), so the client cell and the server cell
agree without a byte of control plane: the server frames its *i*-th
accepted connection from a client as that pair's *i*-th connection
(per-pair packet order is FIFO end to end — one uplink serializer, one
FIFO egress queue — so accept order equals connect order).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Set, Tuple

from .. import Registry
from ..fabric.switch import SwitchConfig
from ..net.wire import derive_seed


@dataclass(frozen=True)
class ShardPair:
    """One client host opening ``conns`` connections to one server host."""

    client: int
    server: int
    conns: int
    req_bytes: int = 64
    resp_bytes: int = 64
    #: Every k-th connection (by index) runs one request/response
    #: transaction; the others connect and idle.  0 = nobody transacts.
    transact_every: int = 1

    def __post_init__(self) -> None:
        if self.client == self.server:
            raise ValueError(f"pair {self.client}->{self.server}: loopback")
        if self.conns <= 0:
            raise ValueError(f"pair {self.client}->{self.server}: conns <= 0")
        if self.transact_every and (self.req_bytes <= 0 or self.resp_bytes <= 0):
            raise ValueError(
                f"pair {self.client}->{self.server}: transactions need "
                "req_bytes > 0 and resp_bytes > 0"
            )

    def framing(self, index: int) -> Tuple[int, int]:
        """``(req, resp)`` bytes of the pair's ``index``-th connection —
        the contract the client and the server each derive alone."""
        every = self.transact_every
        if every and index % every == 0:
            return self.req_bytes, self.resp_bytes
        return 0, 0


def _static_switch() -> SwitchConfig:
    return SwitchConfig(partition="static")


@dataclass(frozen=True)
class ShardScenario:
    """A named, seeded, cell-partitioned fabric workload."""

    name: str
    num_hosts: int
    num_cells: int
    pairs: Tuple[ShardPair, ...]
    seed: int = 0
    #: Connect instants of each pair ramp over this window (int ps).
    connect_window_ps: int = 100_000_000
    #: Tear connections down after their transaction (churn) or hold
    #: them open for the rest of the run (megaflow).
    close_after: bool = True
    #: Cell switches require static partitioning + fifo queueing — the
    #: only locally decidable admission policy (see CellSwitch).
    switch: SwitchConfig = field(default_factory=_static_switch)
    backend: str = "f4t"
    server_port: int = 9000
    #: Safety valve: a run that is not quiescent after this many epochs
    #: stops unfinished instead of spinning.
    max_epochs: int = 100_000
    #: Presets too big to buffer a trace for turn fingerprinting off by
    #: default; ``--fingerprint`` / the runner argument overrides.
    fingerprint_default: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_cells < 1 or self.num_hosts < 2:
            raise ValueError(f"{self.name}: need >=2 hosts and >=1 cell")
        if self.num_hosts % self.num_cells != 0:
            raise ValueError(
                f"{self.name}: {self.num_hosts} hosts do not divide into "
                f"{self.num_cells} equal cells"
            )
        if not self.pairs:
            raise ValueError(f"{self.name}: no pairs")
        seen: Set[Tuple[int, int]] = set()
        for pair in self.pairs:
            if not (0 <= pair.client < self.num_hosts):
                raise ValueError(f"{self.name}: client {pair.client} out of range")
            if not (0 <= pair.server < self.num_hosts):
                raise ValueError(f"{self.name}: server {pair.server} out of range")
            if (pair.client, pair.server) in seen:
                raise ValueError(
                    f"{self.name}: duplicate pair {pair.client}->{pair.server} "
                    "(accept matching is per ordered host pair)"
                )
            seen.add((pair.client, pair.server))
        self.switch.validate()

    # ------------------------------------------------------------ geometry
    @property
    def hosts_per_cell(self) -> int:
        return self.num_hosts // self.num_cells

    def cell_of(self, host: int) -> int:
        return host // self.hosts_per_cell

    def hosts_of_cell(self, cell: int) -> List[int]:
        base = cell * self.hosts_per_cell
        return list(range(base, base + self.hosts_per_cell))

    @property
    def epoch_ps(self) -> int:
        """The conservative lockstep quantum: one uplink propagation
        delay.  A packet sent at ``t`` inside epoch ``e`` reaches the
        switch admission point at ``t + serialization + propagation >=
        epoch_end``, so admissions for epoch ``e+1`` are all known at
        the barrier ending epoch ``e`` — that is the whole proof."""
        return int(self.switch.link.propagation_delay_us * 10**6)

    # ----------------------------------------------------------- schedules
    def with_seed(self, seed: int) -> "ShardScenario":
        return replace(self, seed=seed)

    def scaled(self, factor: int) -> "ShardScenario":
        """A dry-run variant: every pair's connection count divided by
        ``factor`` (floored at 1).  Same hosts, cells and phases."""
        if factor <= 1:
            return self
        return replace(
            self,
            name=f"{self.name}/dry{factor}",
            pairs=tuple(
                replace(pair, conns=max(1, pair.conns // factor))
                for pair in self.pairs
            ),
        )

    def connect_instants(self, pair: ShardPair) -> array[int]:
        """The pair's connect instants (int ps), packed, one per connection.

        Pure function of (seed, scenario name, pair endpoints), and
        strictly increasing — one per ``window / conns`` slot, jittered
        inside the slot by the pair's seeded RNG.  Only the client
        driver holds it; what each connection carries is
        :meth:`ShardPair.framing` of its index, on both sides.
        """
        rng = random.Random(
            derive_seed(
                self.seed, f"shard/{self.name}/{pair.client}->{pair.server}"
            )
        )
        spacing = max(1, self.connect_window_ps // pair.conns)
        return array(
            "q",
            (
                index * spacing + rng.randrange(spacing)
                for index in range(pair.conns)
            ),
        )

    @property
    def total_conns(self) -> int:
        return sum(pair.conns for pair in self.pairs)

    def describe(self) -> str:
        head = f"{self.name}: {self.description}".rstrip(": ")
        lines = [
            head,
            f"  {self.num_hosts} hosts / {self.num_cells} cells, "
            f"{len(self.pairs)} pairs, {self.total_conns} conns, "
            f"{'churn' if self.close_after else 'hold-open'}, "
            f"epoch {self.epoch_ps / 1e6:g} us",
        ]
        return "\n".join(lines)


# ------------------------------------------------------------- the registry
ShardScenarioFactory = Callable[[], ShardScenario]

SHARD_SCENARIOS: Registry[ShardScenarioFactory] = Registry("shard scenario")
register_shard_scenario = SHARD_SCENARIOS.register


def available_shard_scenarios() -> List[str]:
    return sorted(SHARD_SCENARIOS)


def get_shard_scenario(name: str, seed: Optional[int] = None) -> ShardScenario:
    scenario = SHARD_SCENARIOS[name]()
    return scenario if seed is None else scenario.with_seed(seed)


# ------------------------------------------------------------- the presets
@register_shard_scenario("churn")
def churn_shard_scenario() -> ShardScenario:
    """The small determinism workhorse: 8 hosts, 4 cells, full teardown.

    Four cross-cell pairs, one intra-cell pair (local routing must take
    the same pending-inbox path as remote) and one reverse-direction
    pair.  Small enough that CI runs it at 1, 2 and 4 workers and
    compares merged fingerprints.
    """
    return ShardScenario(
        name="churn",
        description="connect/request/response/teardown across 4 cells",
        num_hosts=8,
        num_cells=4,
        connect_window_ps=100_000_000,  # 100 us ramp, ~50 epochs
        close_after=True,
        max_epochs=2_000,
        pairs=(
            ShardPair(client=0, server=4, conns=64),
            ShardPair(client=1, server=5, conns=64),
            ShardPair(client=2, server=6, conns=64),
            ShardPair(client=3, server=7, conns=64),
            ShardPair(client=1, server=0, conns=32),  # intra-cell
            ShardPair(client=6, server=3, conns=32),  # server-side cell
        ),
    )


@register_shard_scenario("megaflow")
def megaflow_shard_scenario() -> ShardScenario:
    """The million-flow churnless preset: 32 pairs x 32768 connections.

    Every connection is opened over a 2 ms ramp and held for the rest
    of the run — 1,048,576 concurrent client-side connections at the
    final barriers.  One connection in eight runs a 64 B/64 B
    request/response transaction; the rest just occupy per-flow state,
    which is the point: bounded per-shard memory at million-flow scale.
    Fingerprinting defaults off (the trace stream would dwarf the run);
    pass ``--fingerprint`` to pay for it.
    """
    half = 32
    return ShardScenario(
        name="megaflow",
        description="1,048,576 held-open conns across 8 cells",
        num_hosts=64,
        num_cells=8,
        connect_window_ps=2_000_000_000,  # 2 ms ramp, ~1000 epochs
        close_after=False,
        max_epochs=20_000,
        fingerprint_default=False,
        pairs=tuple(
            ShardPair(
                client=i,
                server=half + i,
                conns=32_768,
                transact_every=8,
            )
            for i in range(half)
        ),
    )
