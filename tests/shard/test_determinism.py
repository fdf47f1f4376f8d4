"""The shard layer's keystone: the merged fingerprint is a pure
function of (scenario, seed) — never of the worker count.

Every inter-host packet, local and remote alike, is keyed
``(arrival_ps, src, seq)`` into the destination cell's pending heap, so
the admission sequence a cell executes is independent of how its
inputs were batched across epoch barriers.  These tests pin that
property the same way ``tests/traffic/test_kernel_equivalence.py``
pins the kernel: a golden constant, captured once, that only a
deliberate behaviour change may move.
"""

import pytest

from repro.shard import get_shard_scenario, run_shard

#: Merged churn fingerprint (seed 0), captured at introduction.  If a
#: change moves this hash it changed simulated shard behaviour — that
#: can be legitimate, but re-capture it in the same change and say why.
GOLDEN_CHURN = (
    "07cf36ccc07997280d646b05cee28881278d23a6fb5f3628bb7fcd17bcb5b80d"
)


class TestWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def runs(self):
        scenario = get_shard_scenario("churn")
        return {
            workers: run_shard(scenario, workers=workers, fingerprint=True)
            for workers in (1, 2, 4)
        }

    def test_merged_fingerprint_identical_across_workers(self, runs):
        fingerprints = {r.fingerprint for r in runs.values()}
        assert fingerprints == {GOLDEN_CHURN}

    def test_per_cell_fingerprints_identical_across_workers(self, runs):
        per_cell = {
            workers: [c.fingerprint for c in r.cells]
            for workers, r in runs.items()
        }
        assert per_cell[1] == per_cell[2] == per_cell[4]

    def test_counters_identical_across_workers(self, runs):
        totals = [
            {c.cell: dict(c.counters) for c in r.cells}
            for r in runs.values()
        ]
        assert totals[0] == totals[1] == totals[2]

    def test_epoch_count_identical_across_workers(self, runs):
        assert len({r.epochs for r in runs.values()}) == 1

    def test_all_runs_finish_and_settle(self, runs):
        for r in runs.values():
            assert r.finished
            assert r.total("conns_opened") == 320
            assert r.total("conns_established") == 320
            assert r.total("conns_closed") == 320


class TestSanitizedRun:
    def test_lockstep_sanitizer_preserves_golden(self):
        """The lockstep hooks observe, they never mutate: a sanitized
        churn run is clean AND reproduces the pinned golden exactly."""
        from repro.check.lockstep import LockstepSanitizer

        scenario = get_shard_scenario("churn")
        san = LockstepSanitizer()
        result = run_shard(scenario, fingerprint=True, sanitizer=san)
        assert san.ok, san.report()
        assert san.checks_run > 0
        assert result.fingerprint == GOLDEN_CHURN
        assert [c.fingerprint for c in result.cells] == [
            c.fingerprint
            for c in run_shard(scenario, fingerprint=True).cells
        ]


    def test_sanitizer_watches_cross_group_routing(self):
        """A sanitized ``workers=2`` run is two in-process groups on the
        one barrier loop, so the hooks see the routing a multi-worker
        run executes — and it is clean and on the golden."""
        from repro.check.lockstep import LockstepSanitizer

        san = LockstepSanitizer()
        result = run_shard(
            get_shard_scenario("churn"), workers=2, fingerprint=True,
            sanitizer=san,
        )
        assert san.findings == [], san.report()
        assert result.workers == 2
        assert result.fingerprint == GOLDEN_CHURN


class TestGroupKinds:
    def test_in_process_and_piped_group_agree_at_every_barrier(self):
        """The forked worker runs the same group class behind a pipe:
        fed the same inbound, both kinds hand back the same
        ``(outbound, idle, open_conns)`` at each of 50 churn barriers."""
        from repro.fabric.softstack import FabricPacket
        from repro.shard.runner import _CellGroup, _PipedGroup

        def plain(barrier):
            outbound, idle, open_conns = barrier
            return (
                {
                    pair: [
                        (at, src, seq) + tuple(
                            getattr(packet, name)
                            for name in FabricPacket.__slots__
                        )
                        for at, src, seq, packet in entries
                    ]
                    for pair, entries in outbound.items()
                },
                idle,
                open_conns,
            )

        scenario = get_shard_scenario("churn")
        cells = list(range(scenario.num_cells))
        groups = [
            _CellGroup(scenario, cells, True),
            _PipedGroup(0, scenario, cells, True, []),
        ]
        try:
            inbound = {}
            exchanged = 0
            for epoch in range(50):
                for group in groups:
                    group.start_epoch(
                        epoch, (epoch + 1) * scenario.epoch_ps, inbound
                    )
                local, piped = (group.barrier() for group in groups)
                assert plain(local) == plain(piped), f"epoch {epoch}"
                inbound = {}
                for (_src, dst), entries in sorted(local[0].items()):
                    inbound.setdefault(dst, []).extend(entries)
                    exchanged += len(entries)
            assert exchanged > 0
            assert [r.fingerprint for r in groups[0].finish()[0]] == [
                r.fingerprint for r in groups[1].finish()[0]
            ]
        finally:
            for group in groups:
                group.close()


class TestSeedSensitivity:
    def test_same_seed_byte_identical(self):
        scenario = get_shard_scenario("churn", seed=7)
        a = run_shard(scenario, workers=2, fingerprint=True)
        b = run_shard(scenario, workers=2, fingerprint=True)
        assert a.fingerprint == b.fingerprint
        assert a.to_json()["totals"] == b.to_json()["totals"]

    def test_different_seed_different_fingerprint(self):
        a = run_shard(get_shard_scenario("churn", seed=0), fingerprint=True)
        b = run_shard(get_shard_scenario("churn", seed=7), fingerprint=True)
        assert a.fingerprint != b.fingerprint

    def test_workers_clamped_to_cells(self):
        scenario = get_shard_scenario("churn")
        r = run_shard(scenario, workers=64, fingerprint=True)
        assert r.workers == scenario.num_cells
        assert r.fingerprint == GOLDEN_CHURN


class TestCellEventCounts:
    """Per-cell counters — ``events`` (the instants a cell visited)
    first among them — recorded at the commit before ``_settle`` began
    touching only the hosts with something due.  They are part of
    ``sim_digest``: skipping a host must never skip (or add) an instant.
    """

    #: counter names, then one row per cell.
    COLUMNS = (
        "events", "forwarded", "packets_sent", "packets_received",
        "conns_opened", "conns_established", "conns_closed", "accepted",
        "responded", "txns_completed",
    )
    MEGAFLOW_512 = 4 * [(1792, 640, 1152, 640, 512, 512, 0, 0, 0, 64)] + 4 * [
        (2304, 1152, 640, 1152, 0, 0, 0, 512, 64, 0)
    ]
    CHURN = [
        (2144, 992, 1120, 992, 160, 160, 160, 32, 32, 160),
        (1792, 832, 928, 832, 128, 128, 128, 32, 32, 128),
        (1536, 768, 640, 768, 0, 0, 0, 128, 128, 0),
        (1887, 928, 832, 928, 32, 32, 32, 128, 128, 32),
    ]

    @pytest.mark.parametrize("scenario,expected", [
        (get_shard_scenario("megaflow").scaled(512), MEGAFLOW_512),
        (get_shard_scenario("churn"), CHURN),
    ], ids=["megaflow/512", "churn"])
    def test_per_cell_counters_are_pinned(self, scenario, expected):
        result = run_shard(scenario, workers=1, fingerprint=False)
        assert result.finished
        rows = [
            tuple(cell.counters[name] for name in self.COLUMNS)
            for cell in result.cells
        ]
        assert rows == expected
        for cell in result.cells:
            for name in ("dropped", "retransmits", "timeouts", "ecn_marked"):
                assert cell.counters[name] == 0
