"""The Testbed run loop: time keeping, idle-skip, bounds."""

import pytest

from repro.engine.ftengine import ENGINE_PERIOD_PS, FtEngineConfig
from repro.engine.testbed import Testbed, message_driven
from repro.net.link import Link


class TestTimeKeeping:
    def test_time_advances_with_cycles(self):
        testbed = Testbed()
        testbed.step()
        assert testbed.cycle == 1
        assert testbed.time_ps == pytest.approx(ENGINE_PERIOD_PS)
        assert testbed.now_s == pytest.approx(4e-9)

    def test_engines_stay_in_lockstep(self):
        testbed = Testbed()
        for _ in range(10):
            testbed.step()
        assert testbed.engine_a.cycle == testbed.engine_b.cycle == 10


class TestRunSemantics:
    def test_until_checked_before_stepping(self):
        testbed = Testbed()
        assert testbed.run(until=lambda: True, max_time_s=1.0)
        assert testbed.cycle == 0

    def test_max_time_bound(self):
        testbed = Testbed()
        testbed.engine_a.connect(testbed.engine_b.ip, 9)  # keep it busy
        assert not testbed.run(until=lambda: False, max_time_s=1e-6)
        assert testbed.now_s >= 1e-6

    def test_max_steps_bound(self):
        testbed = Testbed()
        testbed.engine_a.connect(testbed.engine_b.ip, 9)
        assert not testbed.run(until=lambda: False, max_steps=50)

    def test_idle_run_without_predicate_finishes(self):
        assert Testbed().run(max_time_s=1.0)

    def test_idle_fast_forward_with_predicate(self):
        """A cycle-gated predicate still fires when everything is idle:
        the loop fast-forwards instead of stalling or spinning."""
        testbed = Testbed()
        target = {"cycle": 100_000}
        assert testbed.run(
            until=lambda: testbed.cycle >= target["cycle"],
            max_time_s=1.0,
            max_steps=10_000,  # far fewer steps than cycles: must skip
        )

    def test_timer_wakeup_is_not_skipped(self):
        """Idle-skip lands on timer deadlines, not past them."""
        testbed = Testbed()
        testbed.wire.port_a.send = lambda frame, now_ps: None  # blackhole
        flow = testbed.engine_a.connect(testbed.engine_b.ip, 9999)
        fired = testbed.run(
            until=lambda: testbed.engine_a.counters.get("timeouts_fired") >= 1,
            max_time_s=5.0,
        )
        assert fired
        # The SYN RTO is ~1 s; we must not have skipped far past it.
        assert 0.9 <= testbed.now_s <= 1.2


class TestEstablish:
    def test_returns_flow_pair(self):
        testbed = Testbed()
        a_flow, b_flow = testbed.establish(server_port=8080)
        assert testbed.engine_a.flows[a_flow].key.dst_port == 8080
        assert b_flow in testbed.engine_b.flows

    def test_timeout_raises(self):
        testbed = Testbed()
        # Break the wire so the handshake can never complete.
        testbed.wire.port_a.send = lambda frame, now_ps: None
        with pytest.raises(TimeoutError):
            testbed.establish(max_time_s=0.01)


class TestCustomLink:
    def test_link_parameters_respected(self):
        slow = Testbed(link=Link(bandwidth_gbps=1.0, propagation_delay_us=50.0))
        fast = Testbed(link=Link(bandwidth_gbps=100.0, propagation_delay_us=1.0))
        slow.establish()
        fast.establish()
        # Handshake RTT dominated by propagation: 100 us vs 2 us-ish.
        assert slow.now_s > 5 * fast.now_s

    def test_custom_configs(self):
        testbed = Testbed(
            config_a=FtEngineConfig(num_fpcs=1, fpc_slots=4),
            config_b=FtEngineConfig(num_fpcs=2, fpc_slots=8),
        )
        assert len(testbed.engine_a.fpcs) == 1
        assert len(testbed.engine_b.fpcs) == 2


class TestIdleSkipNeverOvershoots:
    """PR 5 / satellite 4: idle-skip must never jump past scheduled work."""

    def test_external_wakeup_lands_within_one_cycle(self):
        """With ``wakeup_ps`` announcing an arrival, the skip lands on
        the first cycle at or after it — never beyond."""
        testbed = Testbed()
        arrival_ps = 1_000_000_007  # ~1 ms, deliberately unaligned
        observed = []

        def until():
            if testbed.time_ps >= arrival_ps and not observed:
                observed.append(testbed.time_ps)
            return bool(observed)

        assert testbed.run(
            until=until,
            max_time_s=0.01,
            wakeup_ps=lambda: arrival_ps,
        )
        # The skip lands at most one cycle past the arrival (ceil), and
        # the predicate runs after one more step: 2 cycles worst case.
        assert 0 <= observed[0] - arrival_ps <= 2 * ENGINE_PERIOD_PS

    def test_aligned_external_wakeup_observed_exactly(self):
        testbed = Testbed()
        arrival_ps = 2_000_000  # exactly cycle 500
        seen = []

        def until():
            if testbed.time_ps >= arrival_ps and not seen:
                seen.append(testbed.cycle)
            return bool(seen)

        assert testbed.run(
            until=until, max_time_s=0.01, wakeup_ps=lambda: arrival_ps
        )
        assert seen[0] <= arrival_ps // ENGINE_PERIOD_PS + 1

    def test_idle_chunk_doubling_cannot_skip_an_arrival(self):
        """The blind idle_chunk fast-forward only runs when no wakeup is
        announced; once one is, the jump is capped at the arrival."""
        testbed = Testbed()
        checks = []

        def wakeup():
            # Announce an arrival two chunks ahead of wherever we are.
            target = testbed.time_ps + 512 * ENGINE_PERIOD_PS
            checks.append(target)
            return target

        crossed = []

        def until():
            if checks and testbed.time_ps > checks[-1]:
                # We may land past the *announced* time by at most the
                # distance to the next probe (8 steps).
                crossed.append(testbed.time_ps - checks[-1])
            return testbed.cycle >= 100_000

        assert testbed.run(until=until, max_time_s=1.0, wakeup_ps=wakeup)
        assert all(delta <= 9 * ENGINE_PERIOD_PS for delta in crossed)


def _bulk_pump(testbed, a_flow, b_flow, total_bytes):
    """A purely message-driven pump: send until the buffer refuses,
    read whatever is there.  Records the cycle of every call that acted."""
    progress = {"sent": 0, "received": 0, "acted": []}
    payload = bytes(4096)

    def pump():
        acted = False
        while progress["sent"] < total_bytes:
            accepted = testbed.engine_a.send_data(a_flow, payload)
            progress["sent"] += accepted
            acted = acted or accepted > 0
            if accepted < len(payload):
                break
        readable = testbed.engine_b.readable(b_flow)
        if readable:
            progress["received"] += len(testbed.engine_b.recv_data(b_flow, readable))
            acted = True
        if acted:
            progress["acted"].append(testbed.cycle)
        return progress["received"] >= total_bytes

    return pump, progress


class TestHorizonLoop:
    """``quiet_cycle`` turns the per-cycle loop into the horizon loop;
    both must walk the same simulated history."""

    def _transfer(self, quiet_cycle, total_bytes=200_000, max_steps=50_000_000):
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        pump, progress = _bulk_pump(testbed, a_flow, b_flow, total_bytes)
        setup = dict(testbed.loop_stats)
        finished = testbed.run(
            until=pump, max_time_s=1.0, max_steps=max_steps, quiet_cycle=quiet_cycle
        )
        stats = {k: v - setup[k] for k, v in testbed.loop_stats.items()}
        return testbed, progress, stats, finished

    @staticmethod
    def _counters(testbed):
        return [
            (e.cycle, e.scheduler.cycle, [f.cycle for f in e.fpcs],
             e.scheduler.events_routed, e.counters.as_dict())
            for e in (testbed.engine_a, testbed.engine_b)
        ]

    def test_loop_stats_of_the_per_cycle_reference(self):
        testbed, _, stats, finished = self._transfer(None, total_bytes=20_000)
        assert finished
        assert stats["cycles_advanced"] == 0
        assert stats["ticks_a"] == stats["ticks_b"] == stats["cycles_visited"]
        # until runs at every top, the one that returns True included.
        assert stats["until_calls"] == stats["cycles_visited"] + 1

    def test_message_driven_pump_is_called_only_on_messages(self):
        ref_tb, ref_progress, ref_stats, _ = self._transfer(None)
        tb, progress, stats, finished = self._transfer(message_driven)
        assert finished
        # Same history: the pump acted on the same cycles, the run ended
        # on the same cycle with every counter where the reference has it.
        assert progress["acted"] == ref_progress["acted"]
        assert tb.cycle == ref_tb.cycle
        assert self._counters(tb) == self._counters(ref_tb)
        # Every simulated cycle accounted for, ticked or advanced.
        assert (
            stats["cycles_visited"] + stats["cycles_advanced"]
            == ref_stats["cycles_visited"]
        )
        # ...at a fraction of the visits, ticks and pump calls.
        assert stats["cycles_visited"] < ref_stats["cycles_visited"] / 2
        assert stats["ticks_a"] + stats["ticks_b"] < ref_stats["ticks_a"]
        assert stats["until_calls"] < ref_stats["until_calls"] / 2
        assert stats["until_calls"] >= len(progress["acted"])

    @pytest.mark.parametrize("max_steps", [1, 7, 8, 9, 250, 1001, 4444])
    def test_max_steps_lands_mid_skip_on_the_reference_cycle(self, max_steps):
        ref_tb, ref_progress, _, ref_finished = self._transfer(None, max_steps=max_steps)
        tb, progress, stats, finished = self._transfer(message_driven, max_steps=max_steps)
        assert not finished and not ref_finished
        assert stats["cycles_visited"] + stats["cycles_advanced"] == max_steps
        assert tb.cycle == ref_tb.cycle
        assert progress == ref_progress
        assert self._counters(tb) == self._counters(ref_tb)

    def test_none_from_quiet_cycle_means_call_again_next_cycle(self):
        tb, progress, stats, finished = self._transfer(lambda: None, total_bytes=20_000)
        ref_tb, ref_progress, ref_stats, _ = self._transfer(None, total_bytes=20_000)
        assert finished
        assert progress == ref_progress and tb.cycle == ref_tb.cycle
        assert stats["until_calls"] == ref_stats["until_calls"]
        assert (
            stats["cycles_visited"] + stats["cycles_advanced"]
            == ref_stats["cycles_visited"]
        )
        # Even so, only an engine with work is ticked.
        assert stats["ticks_a"] + stats["ticks_b"] < ref_stats["ticks_a"]
        assert self._counters(tb) == self._counters(ref_tb)
