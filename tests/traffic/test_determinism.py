"""One top-level seed threads through schedules, sizes and the wire.

The satellite guarantee: two runs of the same seeded scenario — fault
injection included — produce *identical* metrics, and changing the seed
changes the run.  Everything derives from ``derive_seed(seed, label)``
(sha256, never ``hash()``), so replay holds across processes too.
"""

from repro.traffic import LoadEngine, get_scenario, run_scenario


def _fingerprint(result):
    """Every externally visible metric of a run, exactly."""
    return (
        result.to_csv(),
        result.frames_dropped,
        result.elapsed_s,
        {
            name: (
                metrics.latencies.samples,
                metrics.lifecycle.samples,
                metrics.bytes_delivered,
                metrics.connections_opened,
                metrics.connections_closed,
            )
            for name, metrics in result.classes.items()
        },
    )


class TestFunctionalDeterminism:
    def test_same_seed_identical_metrics_under_impairment(self):
        # lossy-mixed exercises every seeded stream: arrivals, Zipf
        # sizes, drop and reorder injection on both wire directions.
        a = run_scenario(get_scenario("lossy-mixed", seed=7))
        b = run_scenario(get_scenario("lossy-mixed", seed=7))
        assert _fingerprint(a) == _fingerprint(b)
        assert a.frames_dropped > 0  # the impairments actually fired

    def test_different_seed_different_run(self):
        a = run_scenario(get_scenario("lossy-mixed", seed=7))
        c = run_scenario(get_scenario("lossy-mixed", seed=8))
        assert _fingerprint(a) != _fingerprint(c)

    def test_seed_changes_schedule_not_structure(self):
        a = get_scenario("mixed", seed=1).schedule()
        b = get_scenario("mixed", seed=2).schedule()
        assert a != b
        assert {r.cls for r in a} == {r.cls for r in b}


class TestLoadScaleDeterminism:
    def test_load_scaled_run_replays_exactly(self):
        # Past the knee (x8 on rpc): queues build, and replay still holds.
        a = LoadEngine(get_scenario("rpc", seed=5), load_scale=8.0).run()
        b = LoadEngine(get_scenario("rpc", seed=5), load_scale=8.0).run()
        assert _fingerprint(a) == _fingerprint(b)
