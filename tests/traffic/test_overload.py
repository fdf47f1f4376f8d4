"""Graceful overload: 2x sustainable load degrades, never deadlocks.

A single serialized RPC connection sustains roughly one request per RTT
(~4.3 us on the simulated 100G link, so ~230 k req/s).  Driving it
open-loop well past that must (a) terminate, (b) plateau at the
sustainable rate rather than collapse, (c) still report latency
percentiles (which now include queueing from the *scheduled* arrival),
and (d) keep every engine invariant clean.
"""

import pytest

from repro.traffic import Fixed, LoadEngine, Poisson, Scenario, TrafficClass


def _overload_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        name="overload",
        seed=seed,
        duration_s=200e-6,
        classes=[
            TrafficClass(
                name="rpc",
                arrival=Poisson(rate=200e3),  # ~sustainable for one conn
                request=Fixed(64),
                response=Fixed(256),
                connections=1,
            )
        ],
    )


class TestGracefulOverload:
    @pytest.fixture(scope="class")
    def runs(self):
        scenario = _overload_scenario()
        return {
            scale: LoadEngine(scenario, load_scale=scale, audit=True).run()
            for scale in (1.0, 2.0, 3.0)
        }

    def test_terminates_and_stays_clean(self, runs):
        for result in runs.values():
            assert result.finished  # no deadlock, backlog fully drained
            assert result.clean  # invariant monitors saw nothing
            assert result.completed == result.offered

    def test_achieved_plateaus_at_saturation(self, runs):
        a2, a3 = runs[2.0].achieved_rps, runs[3.0].achieved_rps
        # Offered keeps climbing; achieved does not follow.
        assert runs[2.0].offered_rps > 1.5 * runs[1.0].offered_rps
        assert a2 < 0.75 * runs[2.0].offered_rps
        assert abs(a3 - a2) / a2 < 0.2  # the plateau

    def test_latency_grows_with_queueing(self, runs):
        p99_1, p99_3 = runs[1.0].p99_s, runs[3.0].p99_s
        for result in runs.values():
            assert 0 < result.p50_s <= result.p99_s
        # Open-loop latency counts from the scheduled arrival, so the
        # overloaded run's tail shows the queue, not just the RTT.
        assert p99_3 > 3 * p99_1

    def test_overload_report_renders(self, runs):
        summary = runs[3.0].summary()
        assert "0 invariant violations" in summary
        assert "finished" in summary
