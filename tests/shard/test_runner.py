"""End-to-end shard runs: lifecycle accounting, quiescence, results."""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from .._cli import main as repro_main
from repro.shard import (
    ShardWorkerError, get_shard_scenario, run_shard, run_traffic_shard, runner,
)
from repro.traffic import get_scenario


class TestChurnRun:
    def test_every_connection_completes_the_lifecycle(self):
        r = run_shard(get_shard_scenario("churn"), workers=1)
        assert r.finished
        opened = r.total("conns_opened")
        assert opened == 320
        assert r.total("conns_established") == opened
        assert r.total("conns_closed") == opened
        assert r.total("accepted") == opened
        # Transacting pairs respond once per request.
        assert r.total("txns_completed") == r.total("responded")
        assert r.total("dropped") == 0
        assert r.peak_concurrent > 0

    def test_quiescence_beats_the_epoch_cap(self):
        scenario = get_shard_scenario("churn")
        r = run_shard(scenario, workers=1)
        assert r.epochs < scenario.max_epochs

    def test_json_round_trips(self):
        r = run_shard(get_shard_scenario("churn"), workers=2)
        payload = json.loads(json.dumps(r.to_json()))
        assert payload["finished"] is True
        assert payload["totals"]["conns_opened"] == 320
        assert len(payload["cells"]) == r.num_cells
        assert payload["workers"] == 2

    def test_fingerprint_off_skips_tracing(self):
        r = run_shard(get_shard_scenario("churn"), workers=1,
                      fingerprint=False)
        assert r.fingerprint is None
        assert all(c.fingerprint is None for c in r.cells)
        assert r.finished


class TestMegaflowDry:
    def test_dry_run_holds_all_conns_open(self):
        scenario = get_shard_scenario("megaflow").scaled(128)
        r = run_shard(scenario, workers=2)
        assert r.finished
        total = scenario.total_conns
        assert r.total("conns_established") == total
        assert r.total("conns_closed") == 0
        assert r.peak_concurrent == total  # every conn held open
        assert r.max_worker_rss_kb > 0


def shard_workers():
    return sorted(
        (p for p in multiprocessing.active_children()
         if p.name.startswith("shard-worker-")),
        key=lambda p: p.name,
    )


class TestWorkerDeath:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_sigkilled_worker_is_a_prompt_named_error(self, victim):
        """A dead worker is one ShardWorkerError naming it, raised at
        once, and the survivor is reaped — not a bare EOFError after the
        survivor sat out a 30 s join on a pipe that never reads EOF."""
        scenario = get_shard_scenario("megaflow").scaled(32)  # seconds of work
        killed_at = []

        def kill_one():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if len(shard_workers()) == 2:
                    time.sleep(0.2)  # let the epochs get going
                    os.kill(shard_workers()[victim].pid, signal.SIGKILL)
                    killed_at.append(time.monotonic())
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_one)
        killer.start()
        try:
            cells = list(range(victim, scenario.num_cells, 2))
            with pytest.raises(ShardWorkerError) as raised:
                run_shard(scenario, workers=2)
            elapsed = time.monotonic() - killed_at[0]
        finally:
            killer.join(timeout=30)
        message = str(raised.value)
        assert f"worker {victim} " in message
        assert str(cells) in message
        assert "epoch" in message and "exit code -9" in message
        assert elapsed < 5.0
        assert shard_workers() == []


def _cell_0_dies(args):
    """``_traffic_cell_job``, except that cell 0's worker SIGKILLs itself."""
    if args[0] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _traffic_cell_job(args)


_traffic_cell_job = runner._traffic_cell_job


class TestTrafficWorkerDeath:
    def test_sigkilled_traffic_worker_is_a_prompt_named_error(self, monkeypatch):
        """A traffic cell whose worker dies is one ShardWorkerError naming
        the cells left unfinished, raised at once — not a pool that waits
        forever for the dead worker's result."""
        monkeypatch.setattr(runner, "_traffic_cell_job", _cell_0_dies)
        children = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(ShardWorkerError) as raised:
            run_traffic_shard(get_scenario("mixed", seed=1234), workers=2)
        assert time.monotonic() - started < 10.0
        assert "cells [0" in str(raised.value)
        assert set(multiprocessing.active_children()) <= children


class TestShardCli:
    def test_run_json(self, capsys):
        code = repro_main([
            "shard", "run", "churn", "--workers", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True
        assert payload["totals"]["conns_opened"] == 320

    def test_sweep_exits_zero_on_equal_fingerprints(self, capsys):
        code = repro_main([
            "shard", "sweep", "churn", "--workers-list", "1,2",
        ])
        assert code == 0
        assert "deterministic across workers" in capsys.readouterr().out

    def test_list_names_both_kinds(self, capsys):
        assert repro_main(["shard", "list"]) == 0
        out = capsys.readouterr().out
        assert "megaflow" in out
        assert "mixed" in out

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert repro_main(["shard", "run", "nope"]) == 2
