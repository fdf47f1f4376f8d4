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

from repro.fabric.softstack import _IDLE, _NO_RUNS, _Transfer
from repro.shard import get_shard_scenario

from .test_event_core import run_in_process

#: Traced bytes per held-open connection (client + server endpoint) at
#: these sizes: 522 on CPython 3.11 since both ends hold the opener's
#: one key (one 80 B tuple where there were two), 602 before that, 873
#: before a flow's transfer state was allocated at its first transfer
#: (831 on 3.9), and 1,307 before the packed schedule, tuple keys and
#: lazy reassembly state.  (The 64 K run reads more — its flow ids
#: leave the small-int cache.)  The ceiling leaves ~15 %: a second key
#: per connection, growing the connection record, an eager per-flow
#: transfer, a per-connection list or a key ``__dict__`` back fails it.
TRACED_CEILING_B = 600

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
    """Every held-open flow that never moved a byte is on the one shared
    idle transfer record — reassembly runs, windows and all — and every
    flow that did is on a record of its own."""
    _traced, conns, sims = runs[-1]
    flows = [
        flow
        for sim in sims
        for stack in sim.stacks.values()
        for flow in stack.flows.values()
    ]
    assert len(flows) == 2 * conns
    idle = [flow for flow in flows if flow.x is _IDLE]
    assert len(idle) > conns  # 7 in 8 never transact
    moved = [flow.x for flow in flows if flow.x is not _IDLE]
    assert moved and all(type(x) is _Transfer for x in moved)
    assert len({id(x) for x in moved}) == len(moved)
    assert all(flow.x.ooo is _NO_RUNS for flow in flows)
    assert not any(hasattr(flow.key, "__dict__") for flow in flows)


def test_one_key_object_per_connection(runs):
    """Both ends of every connection, in one cell or across two, hold
    the opener's key object: there are as many keys as connections."""
    _traced, conns, sims = runs[-1]
    keys = {
        id(flow.wire_key)
        for sim in sims
        for stack in sim.stacks.values()
        for flow in stack.flows.values()
    }
    assert len(keys) == conns
