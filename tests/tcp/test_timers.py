"""RFC 6298 RTO estimation and the timer wheel."""

import pytest

from repro.tcp.tcb import Tcb
from repro.tcp.timers import (
    INITIAL_RTO_S,
    MAX_RTO_S,
    MIN_RTO_S,
    TimerWheel,
    backoff_rto,
    update_rtt,
)


class TestRttEstimation:
    def test_first_sample_initializes(self):
        tcb = Tcb(flow_id=0)
        update_rtt(tcb, 0.1)
        assert tcb.srtt == pytest.approx(0.1)
        assert tcb.rttvar == pytest.approx(0.05)
        assert tcb.rto == pytest.approx(0.3)  # srtt + 4*rttvar

    def test_ewma_converges(self):
        tcb = Tcb(flow_id=0)
        for _ in range(200):
            update_rtt(tcb, 0.02)
        assert tcb.srtt == pytest.approx(0.02, rel=1e-3)
        # With variance decayed, RTO converges to ~SRTT (above the floor).
        assert tcb.rto == pytest.approx(0.02, rel=0.05)

    def test_rto_floor(self):
        tcb = Tcb(flow_id=0)
        for _ in range(100):
            update_rtt(tcb, 1e-6)  # datacenter microsecond RTTs
        assert tcb.rto >= MIN_RTO_S

    def test_rto_ceiling(self):
        tcb = Tcb(flow_id=0)
        update_rtt(tcb, 100.0)
        assert tcb.rto <= MAX_RTO_S

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            update_rtt(Tcb(flow_id=0), -0.1)

    def test_variance_reacts_to_jitter(self):
        steady = Tcb(flow_id=0)
        jittery = Tcb(flow_id=1)
        for i in range(50):
            update_rtt(steady, 0.05)
            update_rtt(jittery, 0.05 if i % 2 else 0.15)
        assert jittery.rto > steady.rto

    def test_sample_resets_backoff(self):
        tcb = Tcb(flow_id=0)
        backoff_rto(tcb)
        backoff_rto(tcb)
        assert tcb.rto_backoff == 2
        update_rtt(tcb, 0.05)
        assert tcb.rto_backoff == 0


class TestBackoff:
    def test_doubles(self):
        tcb = Tcb(flow_id=0)
        tcb.rto = 0.5
        backoff_rto(tcb)
        assert tcb.rto == pytest.approx(1.0)

    def test_capped(self):
        tcb = Tcb(flow_id=0)
        tcb.rto = 40.0
        backoff_rto(tcb)
        assert tcb.rto == MAX_RTO_S

    def test_initial_rto(self):
        assert Tcb(flow_id=0).rto == INITIAL_RTO_S


class TestTimerWheel:
    def test_arm_and_expire(self):
        wheel = TimerWheel()
        wheel.arm(1, 10.0)
        wheel.arm(2, 5.0)
        assert wheel.expire(7.0) == [2]
        assert wheel.expire(20.0) == [1]

    def test_rearm_replaces_deadline(self):
        wheel = TimerWheel()
        wheel.arm(1, 5.0)
        wheel.arm(1, 50.0)
        assert wheel.expire(10.0) == []
        assert wheel.expire(60.0) == [1]

    def test_cancel(self):
        wheel = TimerWheel()
        wheel.arm(1, 5.0)
        wheel.cancel(1)
        assert wheel.expire(10.0) == []
        assert len(wheel) == 0

    def test_cancel_unknown_is_noop(self):
        TimerWheel().cancel(99)

    def test_deadline_query(self):
        wheel = TimerWheel()
        wheel.arm(3, 7.5)
        assert wheel.next_deadline() == 7.5

    def test_next_deadline_skips_stale_entries(self):
        wheel = TimerWheel()
        wheel.arm(1, 5.0)
        wheel.arm(1, 50.0)  # the 5.0 entry is now stale
        wheel.arm(2, 20.0)
        assert wheel.next_deadline() == 20.0

    def test_next_deadline_empty(self):
        assert TimerWheel().next_deadline() is None

    def test_expire_is_idempotent(self):
        wheel = TimerWheel()
        wheel.arm(1, 1.0)
        assert wheel.expire(2.0) == [1]
        assert wheel.expire(2.0) == []

    def test_earliest_hint_is_a_lower_bound(self):
        wheel = TimerWheel()
        assert wheel.earliest_hint == float("inf")
        wheel.arm(1, 9.0)
        wheel.arm(2, 4.0)
        assert wheel.earliest_hint <= 4.0
        wheel.expire(5.0)
        assert wheel.earliest_hint <= 9.0

    def test_many_flows(self):
        wheel = TimerWheel()
        for flow_id in range(1000):
            wheel.arm(flow_id, float(flow_id))
        fired = wheel.expire(499.5)
        assert fired == list(range(500))
        assert len(wheel) == 500
