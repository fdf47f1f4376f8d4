"""What one held-open connection pins, counted — not timed, not RSS.

The dry ``megaflow`` is run at two sizes under ``tracemalloc`` with the
cells kept alive; the traced bytes per held-open connection are the
*slope* between the two, so everything that does not grow with the
connection count (modules, switch, drivers, the tracer itself) cancels.
Both sizes fill the per-stack ``flows``/``_by_key`` dicts to the same
fraction the 64 K benchmark run does (a power of two per pair), so the
dict share of the slope is the benchmark's.
"""

import gc
import tracemalloc
from array import array

import pytest

from repro.shard import get_shard_scenario

from .test_event_core import run_in_process

#: Traced bytes per held-open connection (client + server endpoint) at
#: these sizes: 873 on CPython 3.11 and 3.12, 831 on 3.9, after the
#: packed schedule, tuple keys and lazy reassembly state; 1,307 (3.11)
#: at the parent of that change.  (The 64 K run reads ~130 B more on
#: both — 998 vs 1,433 — because its flow ids and slots leave the
#: small-int cache.)  The ceiling leaves ~15 % and is still a quarter
#: under the parent: growing a per-connection list, key ``__dict__`` or
#: eager reassembly list back fails it.
TRACED_CEILING_B = 1_000

SMALL, LARGE = 512, 256  # scaled() factors: 2,048 and 4,096 connections


def _held_open(monkeypatch, factor):
    """Run the scaled megaflow; (traced bytes still held, connections,
    the live cell sims)."""
    scenario = get_shard_scenario("megaflow").scaled(factor)
    gc.collect()
    tracemalloc.start()
    try:
        result, sims = run_in_process(monkeypatch, scenario)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.peak_concurrent == scenario.total_conns
    assert len(sims) == scenario.num_cells
    return traced, result.peak_concurrent, sims


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return [_held_open(monkeypatch, factor) for factor in (SMALL, LARGE)]


def test_traced_bytes_per_held_open_connection(runs):
    (small_b, small_conns, _), (large_b, large_conns, _) = runs
    assert large_conns == 2 * small_conns
    slope = (large_b - small_b) / (large_conns - small_conns)
    assert 0 < slope <= TRACED_CEILING_B, f"{slope:.0f} B per connection"


def test_no_driver_keeps_a_per_connection_object_after_settle(runs):
    _traced, conns, sims = runs[-1]
    held = 0
    for sim in sims:
        drivers = list(sim.servers.values())
        for per_host in sim.clients.values():
            drivers.extend(per_host)
        for driver in drivers:
            assert len(driver.conns) == 0
            # The one thing that scales with conns is the client's
            # packed instants: no list, tuple or dict of that length.
            for name, value in vars(driver).items():
                if isinstance(value, (list, tuple, dict, set)):
                    assert len(value) <= len(sim.scenario.pairs), name
        for per_host in sim.clients.values():
            for driver in per_host:
                instants = driver.connect_at
                assert type(instants) is array and instants.itemsize == 8
                held += len(instants)
        for server in sim.servers.values():
            assert set(server.pairs) == set(server.accept_index)
    assert held == conns


def test_idle_flows_share_their_reassembly_and_window_state(runs):
    """Every held-open flow that never saw a hole or an ack is on the
    shared empty run list and its stack's one initial-window int."""
    _traced, conns, sims = runs[-1]
    stacks = sum(len(sim.stacks) for sim in sims)
    flows = [
        flow
        for sim in sims
        for stack in sim.stacks.values()
        for flow in stack.flows.values()
    ]
    assert len(flows) == 2 * conns
    assert len({id(flow.ooo) for flow in flows}) == 1
    assert flows[0].ooo == ()
    idle = [flow for flow in flows if flow.flow_acked == 0]
    assert len(idle) > conns  # 7 in 8 never transact
    assert len({id(flow.cwnd) for flow in idle}) <= stacks
    assert not any(hasattr(flow.key, "__dict__") for flow in flows)
