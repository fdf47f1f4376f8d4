"""The independent reference TCP simulator (Fig 14's NS3 stand-in)."""

import pytest

from repro.refsim.netsim import CwndTrace, ReferenceTcpSimulation

MSS = 1460


def run(algorithm="newreno", drops=(), duration_s=0.5, **kw):
    drop_set = set(drops)
    sim = ReferenceTcpSimulation(
        algorithm=algorithm,
        duration_s=duration_s,
        drop_fn=lambda index: index in drop_set,
        **kw,
    )
    return sim.run()


class TestCwndTrace:
    def test_sample_at(self):
        trace = CwndTrace([0.0, 1.0, 2.0], [10, 20, 30])
        assert trace.sample_at(0.5) == 10
        assert trace.sample_at(1.0) == 20
        assert trace.sample_at(9.9) == 30

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            CwndTrace().sample_at(0.0)

    def test_resampled(self):
        trace = CwndTrace([0.0, 1.0], [5, 7])
        assert trace.resampled([0.0, 0.5, 1.5]) == [5, 5, 7]


class TestLossFreeBehaviour:
    def test_cwnd_grows_without_losses(self):
        trace = run(duration_s=0.3)
        assert trace.cwnd_bytes[-1] > trace.cwnd_bytes[0]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ReferenceTcpSimulation(algorithm="quic").run()

    def test_flight_cap_bounds_usable_window(self, monkeypatch):
        """The 512 KB send buffer caps in-flight data (§5)."""
        monkeypatch.setattr(ReferenceTcpSimulation, "max_flight_bytes", 64 * 1024)
        sim = ReferenceTcpSimulation(duration_s=0.3, drop_fn=None)
        trace = sim.run()
        assert trace is not None  # growth continues but flight is capped


class TestLossReaction:
    def test_drop_triggers_multiplicative_decrease(self):
        trace = run(drops=[400])
        peak = max(trace.cwnd_bytes)
        # Some sample after the loss is well below the peak.
        loss_floor = min(trace.cwnd_bytes[len(trace.cwnd_bytes) // 2 :])
        assert loss_floor < 0.8 * peak

    def test_both_algorithms_recover_after_loss(self):
        reno = run("newreno", drops=[500], duration_s=0.4)
        cubic = run("cubic", drops=[500], duration_s=0.4)
        # Both recovered and kept transmitting.
        assert reno.cwnd_bytes[-1] > 2 * MSS
        assert cubic.cwnd_bytes[-1] > 2 * MSS

    def test_cubic_decrease_is_gentler_than_renos(self):
        """beta = 0.7 vs Reno's 0.5: shortly after the same loss, CUBIC
        holds a larger window."""
        reno = run("newreno", drops=[600], duration_s=0.2)
        cubic = run("cubic", drops=[600], duration_s=0.2)
        t = 0.05  # shortly after the loss reaction
        assert cubic.sample_at(t) >= reno.sample_at(t)

    def test_repeated_drops_produce_sawtooth(self):
        trace = run(drops=range(400, 100_000, 400), duration_s=1.0)
        values = trace.resampled([i * 0.02 for i in range(1, 50)])
        drops_seen = sum(
            1 for a, b in zip(values, values[1:]) if b < 0.75 * a
        )
        assert drops_seen >= 3  # multiple multiplicative decreases

    def test_total_loss_triggers_rto(self):
        """Dropping everything forces timeout-driven recovery."""
        sim = ReferenceTcpSimulation(
            duration_s=0.5,
            # Drop a long run including any fast-retransmit attempts so
            # only the retransmission timer can repair the stream.
            drop_fn=lambda index: 100 <= index < 500,
            rto_s=0.05,
        )
        trace = sim.run()
        assert min(trace.cwnd_bytes) == MSS  # RTO collapse to one segment


class TestVegasReference:
    def test_vegas_registered(self):
        trace = run("vegas", duration_s=0.3)
        assert trace.cwnd_bytes[-1] > 0

    def test_vegas_stabilizes_below_loss_point(self):
        """After one loss puts both in congestion avoidance, delay-based
        Vegas holds a small steady window while Reno keeps probing."""
        vegas = run("vegas", drops=[500], duration_s=0.8)
        reno = run("newreno", drops=[500], duration_s=0.8)
        assert vegas.cwnd_bytes[-1] < 0.7 * reno.cwnd_bytes[-1]

    def test_vegas_recovers_from_loss(self):
        trace = run("vegas", drops=[500], duration_s=0.5)
        assert trace.cwnd_bytes[-1] > 2 * MSS
