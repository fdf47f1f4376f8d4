"""Parking idle ends is not a model change: the soft-stack runs whose
goldens are pinned, and the dry ``megaflow`` at two sizes, are the same
run with every end keeping its record (``tests/fabric/_park_oracle.py``)
— fingerprint, per-cell counters, ``CellSim.loop_stats`` and the timer
heap's pushes, live pops and stale pops."""

import pytest

from repro.fabric import get_fabric_scenario, run_fabric
from repro.fabric.softstack import TimerHeap
from repro.fabric.switch import CellSwitch
from repro.obs.trace import TraceBus, fingerprint
from repro.shard import get_shard_scenario
from repro.tcp.segment import FlowKey

from ..fabric._park_oracle import never_park
from ..fabric.test_determinism import GOLDEN_INCAST_F4T, GOLDEN_INCAST_LINUX
from .test_determinism import GOLDEN_CHURN
from .test_event_core import GOLDEN_LOSSY_CHURN, lossy_churn, run_in_process


def heap_counters(heap: TimerHeap):
    return heap.pushes, heap.live_pops, heap.stale_pops, len(heap._heap)


def parked_ends(stacks) -> int:
    return sum(
        type(flow) is FlowKey for stack in stacks for flow in stack.flows.values()
    )


def shard_run(monkeypatch, scenario, workers):
    result, sims = run_in_process(monkeypatch, scenario, workers=workers)
    return (
        result.fingerprint,
        [dict(cell.counters) for cell in result.cells],
        [sim.loop_stats for sim in sims],
        [heap_counters(sim.timers) for sim in sims],
    ), parked_ends(stack for sim in sims for stack in sim.stacks.values())


def fabric_run(monkeypatch, backend):
    heaps = []
    init = TimerHeap.__init__

    def collecting_init(self):
        init(self)
        heaps.append(self)

    monkeypatch.setattr(TimerHeap, "__init__", collecting_init)
    bus = TraceBus(layers=["fabric"])
    result = run_fabric(
        get_fabric_scenario("incast", num_hosts=8, seed=1234),
        backend=backend, trace=bus,
    )
    assert result.finished and bus.dropped == 0
    (heap,) = heaps
    return (
        fingerprint(bus.events), result.scalars(), heap_counters(heap),
    ), parked_ends(heap.stacks.values())


#: name -> (run, golden fingerprint or None).
RUNS = {
    "churn": (lambda mp: shard_run(mp, get_shard_scenario("churn"), 1),
              GOLDEN_CHURN),
    "lossy_churn": (lambda mp: shard_run(mp, lossy_churn(), 2),
                    GOLDEN_LOSSY_CHURN),
    "incast_f4t": (lambda mp: fabric_run(mp, "f4t"), GOLDEN_INCAST_F4T),
    "incast_linux": (lambda mp: fabric_run(mp, "linux_stack"),
                     GOLDEN_INCAST_LINUX),
    "megaflow_dry512": (
        lambda mp: shard_run(mp, get_shard_scenario("megaflow").scaled(512), 1),
        None,
    ),
    "megaflow_dry128": (
        lambda mp: shard_run(mp, get_shard_scenario("megaflow").scaled(128), 1),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_parking_changes_no_run(name, monkeypatch):
    run, golden = RUNS[name]
    if name == "lossy_churn":
        monkeypatch.setattr(CellSwitch, "buffer_bytes", 1 << 16)
    with monkeypatch.context() as patch:
        parked_run, parked = run(patch)
    with monkeypatch.context() as patch:
        never_park(patch)
        kept_run, kept = run(patch)
    assert parked_run == kept_run
    assert kept == 0
    if golden is not None:
        assert parked_run[0] == golden
    if name.startswith("megaflow"):
        # Held open: 7 in 8 connections never transact, both ends park.
        conns = sum(c["conns_established"] for c in parked_run[1])
        assert 8 * parked >= 7 * 2 * conns
