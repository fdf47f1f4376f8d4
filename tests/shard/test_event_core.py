"""The cell event loop does work in proportion to what is due.

The shard half of ``tests/fabric/test_event_core.py``: the timer wake
index against the retired every-host scan on a sharded run, and counts
(never timings) showing that idle hosts cost a cell nothing per instant.
"""

from dataclasses import replace

import pytest

from repro.fabric.switch import CellSwitch
from repro.shard import get_shard_scenario, run_shard, runner
from repro.shard.cell import CellSim
from repro.shard.scenarios import ShardPair, ShardScenario

from ..fabric._scan_oracle import StackVisits, record_instants, use_scan


def run_in_process(monkeypatch, scenario, workers=1):
    """Run with every cell group in this process; returns (result, sims)."""
    sims = []
    init = CellSim.__init__

    def collecting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(CellSim, "__init__", collecting_init)
        patch.setattr(runner, "_can_fork", lambda workers: False)
        result = run_shard(scenario, workers=workers)
    assert result.finished and result.workers == workers
    return result, sims


class _BigResponsePair(ShardPair):
    resp_bytes = 32768


def lossy_churn() -> ShardScenario:
    """Churn with 32 KiB responses through an 8 KiB-per-port switch (the
    test shrinks the buffer): bursts are dropped, so RTO timers fire,
    back off and go stale."""
    churn = get_shard_scenario("churn")
    return replace(
        churn,
        pairs=tuple(
            _BigResponsePair(p.client, p.server, conns=8,
                             transact_every=p.transact_every)
            for p in churn.pairs
        ),
        connect_window_ps=10_000_000,
    )


@pytest.mark.parametrize("scenario, lossy", [
    (get_shard_scenario("churn"), False), (lossy_churn(), True),
], ids=["churn", "lossy_churn"])
def test_index_visits_the_instants_and_ticks_the_stacks_of_the_scan(
    scenario, lossy, monkeypatch
):
    """A two-group run, instant by instant, against asking every stack
    ``timer_due`` and walking every timer heap."""
    if lossy:
        monkeypatch.setattr(CellSwitch, "buffer_bytes", 1 << 16)
    runs = {}
    for scan in (False, True):
        with monkeypatch.context() as patch:
            if scan:
                use_scan(patch)
            records = record_instants(patch)
            result, sims = run_in_process(patch, scenario, workers=2)
        admission_only = sum(sim.loop_stats["admission_only"] for sim in sims)
        runs[scan] = (
            records, result.fingerprint, result.total("events"), admission_only,
        )
        assert (result.total("timeouts") > 0) == lossy
    records, _fingerprint, events, admission_only = runs[False]
    # An instant that only admits segments never asks for due hosts.
    instants = sum(kind == "instant" for kind, _who, _at in records)
    assert instants == events - admission_only
    assert runs[False] == runs[True]


def scenario_with_idle_hosts(idle: int) -> ShardScenario:
    """One cell in which hosts 0, 1 and 2 talk and ``idle`` more sit
    idle (the schedule is seeded by name and pair, so it is the same)."""
    return ShardScenario(
        name="idle",
        num_hosts=3 + idle,
        num_cells=1,
        connect_window_ps=20_000_000,
        pairs=(
            ShardPair(client=0, server=2, conns=24),
            ShardPair(client=1, server=0, conns=8),
        ),
    )


def run_counted(monkeypatch, scenario):
    with monkeypatch.context() as patch:
        visits = StackVisits(patch)
        result, sims = run_in_process(patch, scenario)
    return visits.calls, result, sims


def test_idle_hosts_cost_a_cell_no_stack_visits(monkeypatch):
    few, few_result, _ = run_counted(monkeypatch, scenario_with_idle_hosts(3))
    many, many_result, sims = run_counted(monkeypatch, scenario_with_idle_hosts(12))
    assert many_result.total("events") == few_result.total("events") > 0
    assert many == few
    for sim in sims:
        wake = sim._wake
        assert wake.pushes == wake.live_pops + wake.stale_pops + len(wake._heap)


@pytest.mark.parametrize("scenario", [
    get_shard_scenario("churn"),
    get_shard_scenario("megaflow").scaled(512),
], ids=["churn", "megaflow_dry"])
def test_loop_stats_account_for_every_instant_and_tick(scenario, monkeypatch):
    calls, result, sims = run_counted(monkeypatch, scenario)
    stats = [sim.loop_stats for sim in sims]
    assert sum(s["instants"] for s in stats) == result.total("events")
    assert sum(s["stack_ticks"] for s in stats) == calls["tick"]
    assert sum(s["index_pushes"] for s in stats) > 0
    for sim in sims:
        s, report = sim.loop_stats, sim.report()
        assert 0 < s["admission_only"] < s["instants"] == sim.events
        # A stack is ticked for a delivery, an open or a timer entry.
        assert s["stack_ticks"] <= (
            report["packets_received"] + report["conns_opened"] + s["live_pops"]
        )
        # Every tick is one host of a non-admission-only instant.
        assert s["stack_ticks"] >= s["instants"] - s["admission_only"]
        assert s["index_pushes"] == (
            s["live_pops"] + s["stale_pops"] + len(sim._wake._heap)
        )
    # The loop's own keys never reach the fingerprinted counters.
    assert not set(stats[0]) & set(sims[0].report())
