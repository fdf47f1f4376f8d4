"""RFC 6298 RTO estimation and the timer wheel, in integer picoseconds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.component import NEVER
from repro.tcp.tcb import INITIAL_RTO_PS, Tcb
from repro.tcp.timers import (
    MAX_RTO_PS,
    MIN_RTO_PS,
    TimerWheel,
    backoff_rto,
    update_rtt,
)

from ._timer_oracle import UncompactedTimerWheel

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

    def test_cancelled_arms_do_not_pile_up(self):
        """A send arms the RTO and its ACK cancels it, long before a
        1 s deadline reaches the heap top: 10,000 such pairs on four
        flows leave a heap the size of what is armed, not of the sends."""
        wheel = TimerWheel()
        for send in range(10_000):
            flow_id = send % 4
            wheel.arm(flow_id, S + send)
            wheel.cancel(flow_id)
            wheel.arm(flow_id, S + send + 1)
        assert len(wheel) == 4
        assert len(wheel._heap) <= 2 * len(wheel._armed) + TimerWheel.COMPACT_SLACK


_WHEEL_OPS = st.lists(
    st.tuples(
        st.sampled_from(["arm", "arm", "cancel", "expire"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=400,
)


class _EagerWheel(TimerWheel):
    """Sweeps as soon as stale entries outnumber the live ones."""

    COMPACT_SLACK = 0


@settings(max_examples=200, deadline=None)
@given(ops=_WHEEL_OPS)
def test_sweeps_leave_what_fires_and_when_unchanged(ops):
    """Against the uncompacted wheel: the same flows fire in the same
    order (equal deadlines included), and the same deadline and hint
    are published after every operation."""
    wheel, reference = _EagerWheel(), UncompactedTimerWheel()
    now = 0
    for op, flow_id, value in ops:
        if op == "arm":
            for w in (wheel, reference):
                w.arm(flow_id, now + value)
            assert len(wheel._heap) <= 2 * len(wheel)
        elif op == "cancel":
            for w in (wheel, reference):
                w.cancel(flow_id)
        else:
            now += value
            assert wheel.expire(now) == reference.expire(now)
        assert wheel.earliest_hint == reference.earliest_hint
        assert len(wheel) == len(reference)
    assert wheel.next_deadline() == reference.next_deadline()
    assert wheel.expire(NEVER) == reference.expire(NEVER)
