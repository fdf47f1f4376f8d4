"""RFC 6298 RTO estimation and the timer wheel, in integer picoseconds."""

import pytest

from repro.sim.component import NEVER
from repro.tcp.tcb import Tcb
from repro.tcp.timers import (
    INITIAL_RTO_PS,
    MAX_RTO_PS,
    MIN_RTO_PS,
    TimerWheel,
    backoff_rto,
    update_rtt,
)

US = 10**6
MS = 10**9
S = 10**12


class TestRttEstimation:
    def test_first_sample_initializes(self):
        tcb = Tcb(flow_id=0)
        update_rtt(tcb, 100 * MS)
        assert tcb.srtt == 100 * MS
        assert tcb.rttvar == 50 * MS
        assert tcb.rto == 300 * MS  # srtt + 4*rttvar

    def test_ewma_converges(self):
        tcb = Tcb(flow_id=0)
        for _ in range(200):
            update_rtt(tcb, 20 * MS)
        assert tcb.srtt == pytest.approx(20 * MS, rel=1e-3)
        # With variance decayed, RTO converges to ~SRTT (above the floor).
        assert tcb.rto == pytest.approx(20 * MS, rel=0.05)

    def test_rto_floor(self):
        tcb = Tcb(flow_id=0)
        for _ in range(100):
            update_rtt(tcb, US)  # datacenter microsecond RTTs
        assert tcb.rto == MIN_RTO_PS

    def test_rto_ceiling(self):
        tcb = Tcb(flow_id=0)
        update_rtt(tcb, 100 * S)
        assert tcb.rto == MAX_RTO_PS

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            update_rtt(Tcb(flow_id=0), -100 * MS)

    def test_variance_reacts_to_jitter(self):
        steady = Tcb(flow_id=0)
        jittery = Tcb(flow_id=1)
        for i in range(50):
            update_rtt(steady, 50 * MS)
            update_rtt(jittery, 50 * MS if i % 2 else 150 * MS)
        assert jittery.rto > steady.rto

    def test_sample_resets_backoff(self):
        tcb = Tcb(flow_id=0)
        backoff_rto(tcb)
        backoff_rto(tcb)
        assert tcb.rto_backoff == 2
        update_rtt(tcb, 50 * MS)
        assert tcb.rto_backoff == 0


class TestBackoff:
    def test_doubles(self):
        tcb = Tcb(flow_id=0)
        tcb.rto = 500 * MS
        backoff_rto(tcb)
        assert tcb.rto == S

    def test_capped(self):
        tcb = Tcb(flow_id=0)
        tcb.rto = 40 * S
        backoff_rto(tcb)
        assert tcb.rto == MAX_RTO_PS

    def test_initial_rto(self):
        assert Tcb(flow_id=0).rto == INITIAL_RTO_PS


class TestTimerWheel:
    def test_arm_and_expire(self):
        wheel = TimerWheel()
        wheel.arm(1, 10)
        wheel.arm(2, 5)
        assert wheel.expire(7) == [2]
        assert wheel.expire(20) == [1]

    def test_rearm_replaces_deadline(self):
        wheel = TimerWheel()
        wheel.arm(1, 5)
        wheel.arm(1, 50)
        assert wheel.expire(10) == []
        assert wheel.expire(60) == [1]

    def test_cancel(self):
        wheel = TimerWheel()
        wheel.arm(1, 5)
        wheel.cancel(1)
        assert wheel.expire(10) == []
        assert len(wheel) == 0

    def test_cancel_unknown_is_noop(self):
        TimerWheel().cancel(99)

    def test_deadline_query(self):
        wheel = TimerWheel()
        wheel.arm(3, 7500)
        assert wheel.next_deadline() == 7500

    def test_next_deadline_skips_stale_entries(self):
        wheel = TimerWheel()
        wheel.arm(1, 5)
        wheel.arm(1, 50)  # the 5 entry is now stale
        wheel.arm(2, 20)
        assert wheel.next_deadline() == 20

    def test_next_deadline_empty(self):
        assert TimerWheel().next_deadline() is None

    def test_expire_is_idempotent(self):
        wheel = TimerWheel()
        wheel.arm(1, 1)
        assert wheel.expire(2) == [1]
        assert wheel.expire(2) == []

    def test_earliest_hint_is_a_lower_bound(self):
        wheel = TimerWheel()
        assert wheel.earliest_hint == NEVER
        wheel.arm(1, 9)
        wheel.arm(2, 4)
        assert wheel.earliest_hint <= 4
        wheel.expire(5)
        assert wheel.earliest_hint <= 9

    def test_many_flows(self):
        wheel = TimerWheel()
        for flow_id in range(1000):
            wheel.arm(flow_id, 2 * flow_id)
        fired = wheel.expire(999)
        assert fired == list(range(500))
        assert len(wheel) == 500
