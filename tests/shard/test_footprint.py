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

from repro.fabric.softstack import _IDLE, _NO_RUNS, _SoftFlow, _Transfer
from repro.shard import get_shard_scenario
from repro.tcp.segment import FlowKey

from .test_event_core import run_in_process

#: Traced bytes per held-open connection (client + server endpoint) at
#: these sizes: 354 on CPython 3.11 since an idle ESTABLISHED end parks
#: on its two flow-table entries (its 96 B record dropped: 7 in 8
#: connections never transact), 522 since both ends hold the opener's
#: one key (one 80 B tuple where there were two), 602 before that, 873
#: before a flow's transfer state was allocated at its first transfer
#: (831 on 3.9), and 1,307 before the packed schedule, tuple keys and
#: lazy reassembly state.  (The 64 K run reads more — its flow ids
#: leave the small-int cache.)  The ceiling leaves ~15 %: idle ends
#: that keep their records, a second key per connection, growing the
#: connection record, an eager per-flow transfer, a per-connection list
#: or a key ``__dict__`` back fails it.
TRACED_CEILING_B = 407

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
    """Every held-open end that never moved a byte is parked — no
    record, only its key in ``flows`` and its flow id in ``_by_key`` —
    and every end that did is on a transfer record of its own."""
    _traced, conns, sims = runs[-1]
    ends = [
        (stack, flow_id, flow)
        for sim in sims
        for stack in sim.stacks.values()
        for flow_id, flow in stack.flows.items()
    ]
    assert len(ends) == 2 * conns
    parked = [
        (stack, flow_id, key)
        for stack, flow_id, key in ends if type(key) is FlowKey
    ]
    assert 8 * len(parked) >= 7 * len(ends)  # 7 in 8 never transact
    assert all(stack._by_key[key] is flow_id for stack, flow_id, key in parked)
    records = [flow for _stack, _id, flow in ends if type(flow) is not FlowKey]
    assert all(isinstance(flow, _SoftFlow) for flow in records)
    moved = [flow.x for flow in records]
    assert moved and all(type(x) is _Transfer for x in moved)
    assert len({id(x) for x in moved}) == len(moved)
    assert all(x.ooo is _NO_RUNS for x in moved) and _IDLE.ooo is _NO_RUNS
    assert not any(hasattr(flow.key, "__dict__") for flow in records)
    assert not any(hasattr(key, "__dict__") for _s, _id, key in parked)


def test_one_key_object_per_connection(runs):
    """Both ends of every connection, in one cell or across two, parked
    or not, hold the opener's key object: there are as many keys as
    connections."""
    _traced, conns, sims = runs[-1]
    keys = {
        id(flow if type(flow) is FlowKey else flow.wire_key)
        for sim in sims
        for stack in sim.stacks.values()
        for flow in stack.flows.values()
    }
    assert len(keys) == conns
