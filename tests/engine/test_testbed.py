"""The Testbed run loop: time keeping, horizons, bounds."""

import pytest

from repro.engine.ftengine import ENGINE_PERIOD_PS, FtEngineConfig
from repro.engine.testbed import Testbed, message_driven
from repro.net.link import Link
from repro.net.wire import Wire
from repro.tcp.timers import MAX_RTO_PS

from ._percycle_oracle import run_per_cycle, step


class _OneGigLink(Link):
    bandwidth_gbps = 1.0


class TestTimeKeeping:
    def test_time_advances_with_cycles(self):
        testbed = Testbed()
        step(testbed)
        assert testbed.cycle == 1
        assert testbed.time_ps == pytest.approx(ENGINE_PERIOD_PS)
        assert testbed.now_s == pytest.approx(4e-9)

    def test_engines_stay_in_lockstep(self):
        testbed = Testbed()
        for _ in range(10):
            step(testbed)
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
        """A time-gated predicate still fires when everything is idle:
        the loop goes to the bound in one skip instead of stepping."""
        testbed = Testbed()
        assert testbed.run(
            until=lambda: testbed.cycle >= 100_000,
            max_time_s=1.0,
            max_steps=10,  # far fewer steps than cycles: must skip
        )
        assert testbed.loop_stats["cycles_visited"] == 1

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
        a_flow, b_flow = testbed.establish()
        assert testbed.engine_a.flows[a_flow].key.dst_port == 80
        assert b_flow in testbed.engine_b.flows

    def test_timeout_raises(self):
        testbed = Testbed()
        # Break the wire so the handshake can never complete.
        testbed.wire.port_a.send = lambda frame, now_ps: None
        with pytest.raises(TimeoutError):
            testbed.establish()


class TestCustomLink:
    def test_link_parameters_respected(self):
        slow = Testbed(wire=Wire(link=_OneGigLink(propagation_delay_us=50.0)))
        fast = Testbed(wire=Wire(link=Link(propagation_delay_us=1.0)))
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
    """PR 5 / satellite 4: a skip must never jump past scheduled work."""

    def test_external_wakeup_lands_within_one_cycle(self):
        """With ``next_call_ps`` announcing an arrival, the skip lands on
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
            next_call_ps=lambda: arrival_ps,
        )
        # The skip lands on the first cycle at or after the arrival.
        assert 0 <= observed[0] - arrival_ps < ENGINE_PERIOD_PS

    def test_aligned_external_wakeup_observed_exactly(self):
        testbed = Testbed()
        arrival_ps = 2_000_000  # exactly cycle 500
        seen = []

        def until():
            if testbed.time_ps >= arrival_ps and not seen:
                seen.append(testbed.cycle)
            return bool(seen)

        assert testbed.run(
            until=until, max_time_s=0.01, next_call_ps=lambda: arrival_ps
        )
        assert seen[0] == arrival_ps // ENGINE_PERIOD_PS

    def test_a_moving_wakeup_is_never_skipped(self):
        """With everything idle the loop goes as far as it is told it
        may: an instant announced anew after every call is landed on
        every time."""
        testbed = Testbed()
        announced = []

        def next_call():
            announced.append(testbed.time_ps + 512 * ENGINE_PERIOD_PS)
            return announced[-1]

        called_at = []

        def until():
            called_at.append(testbed.time_ps)
            return testbed.cycle >= 100_000

        assert testbed.run(until=until, max_time_s=1.0, next_call_ps=next_call)
        assert called_at[1:] == announced

    def test_a_declared_pump_cycle_is_met_while_everything_is_idle(self):
        """Until PR 23 an idle probe fast-forwarded in blind chunks past
        the cycle a pump had declared (Fig 14's sender restarted ~260
        cycles late after every fully acknowledged window)."""
        testbed = Testbed()
        testbed.establish()
        gate = testbed.cycle + 100
        called_at = []

        def until():
            called_at.append(testbed.cycle)
            return testbed.cycle >= gate

        assert testbed.run(
            until=until, max_time_s=1.0,
            next_call_ps=lambda: gate * ENGINE_PERIOD_PS,
        )
        assert called_at[-1] == gate


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
    """The run loop lands only where something is due; it must walk the
    same simulated history as the per-cycle oracle, which visits, pumps
    and ticks every cycle."""

    def _transfer(self, next_call_ps, total_bytes=200_000, max_steps=None,
                  per_cycle=False):
        """One bulk transfer; with ``max_steps``, cut there and resumed."""
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        pump, progress = _bulk_pump(testbed, a_flow, b_flow, total_bytes)
        setup = dict(testbed.loop_stats, cycle=testbed.cycle)
        cut = None
        if per_cycle:
            finished = run_per_cycle(testbed, until=pump, max_time_s=1.0)
        else:
            if max_steps is not None:
                cut = (
                    testbed.run(until=pump, max_time_s=1.0, max_steps=max_steps,
                                next_call_ps=next_call_ps),
                    testbed.loop_stats["cycles_visited"] - setup["cycles_visited"],
                    testbed.engine_a.cycle == testbed.engine_b.cycle == testbed.cycle,
                )
            finished = testbed.run(
                until=pump, max_time_s=1.0, next_call_ps=next_call_ps
            )
        stats = {k: v - setup[k] for k, v in testbed.loop_stats.items()}
        stats["cycles"] = testbed.cycle - setup["cycle"]
        stats["cut"] = cut
        return testbed, progress, stats, finished

    @staticmethod
    def _counters(testbed):
        return [
            (e.cycle, e.scheduler.events_routed, e.counters.as_dict(),
             e.stats_report())
            for e in (testbed.engine_a, testbed.engine_b)
        ]

    def test_message_driven_pump_is_called_only_on_messages(self):
        ref_tb, ref_progress, ref_stats, _ = self._transfer(None, per_cycle=True)
        tb, progress, stats, finished = self._transfer(message_driven)
        assert finished
        # Same history: the pump acted on the same cycles, the run ended
        # on the same cycle with every counter where the oracle has it.
        assert progress["acted"] == ref_progress["acted"]
        assert tb.cycle == ref_tb.cycle
        assert self._counters(tb) == self._counters(ref_tb)
        # Every simulated cycle accounted for, landed on or skipped...
        assert stats["cycles_visited"] + stats["cycles_advanced"] == stats["cycles"]
        # ...at a fraction of the visits, ticks and pump calls.
        assert stats["cycles_visited"] < stats["cycles"] / 2
        assert stats["ticks_a"] + stats["ticks_b"] < stats["cycles"]
        assert stats["until_calls"] < stats["cycles"] / 2
        assert stats["until_calls"] >= len(progress["acted"])

    def test_an_undeclared_pump_is_called_after_every_cycle_landed_on(self):
        ref_tb, ref_progress, _, _ = self._transfer(None, per_cycle=True)
        tb, progress, stats, finished = self._transfer(None)
        assert finished
        assert progress == ref_progress and tb.cycle == ref_tb.cycle
        assert self._counters(tb) == self._counters(ref_tb)
        # until runs at every top, the one that returns True included.
        assert stats["until_calls"] == stats["cycles_visited"] + 1
        assert stats["cycles_visited"] < stats["cycles"] / 2

    @pytest.mark.parametrize("max_steps", [1, 7, 8, 9, 250, 1001, 4444])
    def test_max_steps_lands_mid_skip_on_the_reference_cycle(self, max_steps):
        """The step bound counts cycles landed on.  Cut there — engines
        brought up to the cycle reached — and resumed, the run walks the
        history the oracle walks in one go."""
        ref_tb, ref_progress, _, _ = self._transfer(None, per_cycle=True)
        tb, progress, stats, finished = self._transfer(
            message_driven, max_steps=max_steps
        )
        finished_at_cut, visited_at_cut, engines_in_step = stats["cut"]
        assert finished and engines_in_step
        assert finished_at_cut == (visited_at_cut < max_steps)
        assert visited_at_cut <= max_steps
        assert progress == ref_progress and tb.cycle == ref_tb.cycle
        assert self._counters(tb) == self._counters(ref_tb)
        assert stats["cycles_visited"] + stats["cycles_advanced"] == stats["cycles"]

    def test_an_instant_already_reached_means_call_again_next_cycle(self):
        tb, progress, stats, finished = self._transfer(lambda: 0, total_bytes=20_000)
        ref_tb, ref_progress, _, _ = self._transfer(
            None, total_bytes=20_000, per_cycle=True
        )
        assert finished
        assert progress == ref_progress and tb.cycle == ref_tb.cycle
        # Every cycle is landed on and pumped, as the oracle does...
        assert stats["cycles_visited"] == stats["cycles"]
        assert stats["until_calls"] == stats["cycles"] + 1
        # ...even so, only an engine with work is ticked.
        assert stats["ticks_a"] + stats["ticks_b"] < stats["cycles"]
        assert self._counters(tb) == self._counters(ref_tb)


class TestLongIdleTimer:
    """A retransmission timer backed off to MAX_RTO (60 s) and nothing
    else scheduled: the loop jumps the idle stretch in one skip and the
    timeout fires on the cycle its integer-ps deadline names."""

    def test_max_rto_fires_on_its_cycle_after_one_jump(self):
        dropping = {"on": False}
        testbed = Testbed(wire=Wire(drop_a_to_b=lambda frame, index: dropping["on"]))
        a_flow, _ = testbed.establish()
        engine = testbed.engine_a
        engine.tcb_of(a_flow).rto = MAX_RTO_PS  # backed off to the cap
        dropping["on"] = True  # the data never arrives, so no ACK
        engine.send_data(a_flow, bytes(1000))
        assert testbed.run(
            until=lambda: engine.timers.next_deadline() is not None,
            max_time_s=testbed.now_s + 1e-3,
        )
        deadline = engine.timers.next_deadline()
        # Armed by the FPU pass that sent the data: its instant + 60 s.
        assert deadline == engine.tcb_of(a_flow).last_active + MAX_RTO_PS
        before = dict(testbed.loop_stats)
        assert testbed.run(
            until=lambda: engine.counters.get("timeouts_fired") > 0,
            max_time_s=testbed.now_s + 61.0,
        )
        assert testbed.cycle == -(-deadline // ENGINE_PERIOD_PS)
        spent = {key: testbed.loop_stats[key] - before[key] for key in before}
        # 15 G idle cycles skipped; a handful landed on and ticked.
        assert spent["cycles_advanced"] > MAX_RTO_PS // ENGINE_PERIOD_PS - 100
        assert spent["cycles_visited"] <= 3
        assert spent["ticks_a"] + spent["ticks_b"] <= 3
