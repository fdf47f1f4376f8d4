"""Simulation kernel: clock domains, time keeping, idle-skip."""

import pytest

from repro.sim.component import Component
from repro.sim.kernel import ClockDomain, PS_PER_SECOND, Simulator


class TickCounter(Component):
    def __init__(self, name="counter", busy_flag=True):
        super().__init__(name)
        self.busy_flag = busy_flag
        self.ticks = 0

    def tick(self):
        super().tick()
        self.ticks += 1

    def busy(self):
        return self.busy_flag


class TestClockDomain:
    def test_period_from_frequency(self):
        domain = ClockDomain("main", 250e6)
        assert domain.period_ps == pytest.approx(4000.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain("bad", 0)

    def test_tick_advances_components_in_order(self):
        domain = ClockDomain("main", 1e9)
        order = []

        class Recorder(Component):
            def __init__(self, tag):
                super().__init__(tag)

            def tick(self):
                order.append(self.name)

        domain.components.extend([Recorder("first"), Recorder("second")])
        domain.tick()
        assert order == ["first", "second"]

    def test_next_edge(self):
        domain = ClockDomain("main", 250e6)
        assert domain.next_edge_ps == pytest.approx(4000.0)
        domain.tick()
        assert domain.next_edge_ps == pytest.approx(8000.0)


class TestSimulator:
    def test_duplicate_domain_rejected(self):
        sim = Simulator()
        sim.add_domain("a", 1e6)
        with pytest.raises(ValueError):
            sim.add_domain("a", 1e6)

    def test_run_cycles_single_domain(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        counter = TickCounter()
        sim.add_component(counter, "main")
        sim.run_cycles(100)
        assert counter.ticks == 100
        assert sim.time_seconds == pytest.approx(100 / 250e6)

    def test_run_cycles_needs_domain_name_when_ambiguous(self):
        sim = Simulator()
        sim.add_domain("a", 1e6)
        sim.add_domain("b", 2e6)
        with pytest.raises(ValueError):
            sim.run_cycles(1)

    def test_multi_domain_interleaving(self):
        """A 322 MHz domain ticks ~1.29x as often as a 250 MHz one."""
        sim = Simulator()
        sim.add_domain("slow", 250e6)
        sim.add_domain("fast", 322e6)
        slow = TickCounter("slow")
        fast = TickCounter("fast")
        sim.add_component(slow, "slow")
        sim.add_component(fast, "fast")
        sim.run_cycles(1000, domain="slow")
        assert slow.ticks == 1000
        assert fast.ticks == pytest.approx(1000 * 322 / 250, rel=0.01)

    def test_step_advances_earliest_edge_first(self):
        sim = Simulator()
        sim.add_domain("slow", 1e6)  # 1 us period
        sim.add_domain("fast", 4e6)  # 0.25 us period
        fast = TickCounter("fast")
        sim.add_component(fast, "fast")
        sim.step()
        assert sim.time_ps == pytest.approx(0.25e6)
        assert fast.ticks == 1

    def test_step_without_domains_raises(self):
        with pytest.raises(RuntimeError):
            Simulator().step()

    def test_run_until_predicate(self):
        sim = Simulator()
        sim.add_domain("main", 1e9)
        counter = TickCounter()
        sim.add_component(counter, "main")
        assert sim.run_until(lambda: counter.ticks >= 42)
        assert counter.ticks == 42

    def test_run_until_respects_max_time(self):
        sim = Simulator()
        sim.add_domain("main", 1e9)
        sim.add_component(TickCounter(), "main")
        assert not sim.run_until(lambda: False, max_time_ps=10_000)
        assert sim.time_ps >= 10_000

    def test_run_until_respects_max_steps(self):
        sim = Simulator()
        sim.add_domain("main", 1e9)
        sim.add_component(TickCounter(), "main")
        assert not sim.run_until(lambda: False, max_steps=7)

    def test_idle_skip_to_wakeup(self):
        """With everything idle, time jumps to the scheduled wakeup."""
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.schedule_wakeup(1e9)  # 1 ms in the future
        assert not sim.run_until(lambda: False, max_time_ps=2e9, max_steps=1000)
        # Reaching 2e9 ps in <=1000 steps is only possible by skipping.
        assert sim.time_ps >= 1e9
        assert idle.ticks < 1000

    def test_idle_without_wakeup_stops(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        sim.add_component(TickCounter(busy_flag=False), "main")
        assert not sim.run_until(lambda: False, max_steps=100)

    def test_reset(self):
        sim = Simulator()
        sim.add_domain("main", 1e9)
        counter = TickCounter()
        sim.add_component(counter, "main")
        sim.run_cycles(10)
        sim.reset()
        assert sim.time_ps == 0.0
        assert counter.cycle == 0

    def test_ps_per_second_constant(self):
        assert PS_PER_SECOND == 1_000_000_000_000


class TestAddDomainAfterTimeAdvancedRegression:
    """Bug: a domain added mid-run started at cycle 0, so the next
    ``step()`` picked its stale first edge and ``time_ps`` ran backwards
    (40000 -> 3106).  Late registration is now refused outright."""

    def test_add_domain_after_stepping_raises(self):
        sim = Simulator()
        sim.add_domain("a", 250e6)
        for _ in range(10):
            sim.step()
        assert sim.time_ps == 40_000
        with pytest.raises(RuntimeError, match="after time has advanced"):
            sim.add_domain("b", 322e6)
        # The refused domain left nothing behind; time keeps moving forward.
        assert list(sim.domains) == ["a"]
        sim.step()
        assert sim.time_ps == 44_000

    def test_add_domain_allowed_again_after_reset(self):
        sim = Simulator()
        sim.add_domain("a", 250e6)
        sim.run_cycles(10)
        sim.reset()
        sim.add_domain("b", 322e6)
        sim.step()
        assert sim.time_ps == 3106


# --------------------------------------------------------------- PR 5 suite
class TestIntegerPicoseconds:
    """The integer-ps contract: exact edges, no cumulative drift."""

    def test_time_is_int(self):
        sim = Simulator()
        sim.add_domain("eth", 322e6)
        sim.add_component(TickCounter(), "eth")
        sim.run_cycles(1000)
        assert isinstance(sim.time_ps, int)

    def test_322mhz_edges_never_drift(self):
        # 322 MHz has a period of ~3105.59 ps: summing floats drifts,
        # exact per-edge rounding must stay within 1 ps of the rational
        # value at any cycle index.
        from fractions import Fraction

        domain = ClockDomain("eth", 322e6)
        for cycle in (1, 7, 322, 10**6, 10**9, 10**12):
            exact = Fraction(cycle) * PS_PER_SECOND / Fraction(322e6)
            assert abs(domain.edge_ps(cycle) - exact) <= Fraction(1, 2)

    def test_interleaved_domains_share_exact_time(self):
        sim = Simulator()
        sim.add_domain("engine", 250e6)
        sim.add_domain("eth", 322e6)
        sim.add_component(TickCounter(), "engine")
        sim.add_component(TickCounter(), "eth")
        for _ in range(10_000):
            sim.step()
        engine = sim.domains["engine"]
        eth = sim.domains["eth"]
        assert sim.time_ps == max(
            engine.edge_ps(engine.cycle), eth.edge_ps(eth.cycle)
        )


class TestWakeupOnEdgeRegression:
    """Satellite 1: a wakeup exactly on a domain edge fired 1 cycle late.

    The old `_skip_to_next_wakeup` landed `domain.cycle` ON the aligned
    edge, so the next step() crossed the edge *after* the wakeup.
    """

    def test_250mhz_aligned_wakeup_fires_on_its_edge(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        # Edge 2 of 250 MHz is exactly 8000 ps.
        sim.schedule_wakeup(8000)
        assert sim.run_until(lambda: idle.ticks >= 1, max_time_ps=1e6)
        assert sim.time_ps == 8000          # old kernel: 12000
        assert sim.domains["main"].cycle == 2  # old kernel: 3

    def test_float_wakeup_on_edge_is_not_late(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.schedule_wakeup(1e9)  # float, exactly edge 250000
        sim.run_until(lambda: idle.ticks >= 1, max_time_ps=2e9)
        assert sim.time_ps == 10**9
        assert sim.domains["main"].cycle == 250_000

    def test_unaligned_wakeup_lands_on_next_edge(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.schedule_wakeup(8001)
        sim.run_until(lambda: idle.ticks >= 1, max_time_ps=1e6)
        assert sim.time_ps == 12000
        assert sim.domains["main"].cycle == 3


class TestWakeupHeapBounded:
    """Satellite 2: `_wakeups` grew without bound on busy runs."""

    def test_churn_style_scheduling_stays_bounded(self):
        # A LoadEngine-style run: busy components, a wakeup scheduled
        # every step for the next arrival.  The old list kept them all
        # (pruning only happened while idle-skipping, and a busy run
        # never idles); the heap drops stale entries on insert.
        sim = Simulator()
        sim.add_domain("main", 250e6)
        sim.add_component(TickCounter(), "main")
        for i in range(10_000):
            sim.schedule_wakeup(sim.time_ps + 8000)
            sim.step()
        assert len(sim._wakeups) < 100  # old kernel: 10_000

    def test_past_wakeups_dropped_on_insert(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        sim.add_component(TickCounter(), "main")
        sim.run_cycles(10)
        sim.schedule_wakeup(4000)   # already in the past
        sim.schedule_wakeup(0)
        assert sim._wakeups == []

    def test_future_wakeups_kept_in_heap_order(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        sim.add_component(TickCounter(), "main")
        for t in (9e5, 3e5, 6e5):
            sim.schedule_wakeup(t)
        assert sim._wakeups[0] == 300_000


class TestWakeupAtNowRegression:
    """A wakeup scheduled at exactly the current time must not be lost.

    ``schedule_wakeup`` used to push only strictly-future times and
    ``_skip_to_next_wakeup`` popped entries ``<= now``, so an all-idle
    engine that scheduled work "now" never woke: ``run_until`` returned
    False spuriously even though work was ready on the next edge.
    """

    def test_wakeup_at_now_kept_on_insert(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        sim.add_component(TickCounter(), "main")
        sim.run_cycles(10)
        sim.schedule_wakeup(sim.time_ps)
        assert sim._wakeups == [sim.time_ps]

    def test_idle_engine_scheduling_now_wakes_and_continues(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(10)  # parks idle after its first tick
        assert idle.ticks == 1
        # Work becomes ready at exactly the current instant (e.g. a
        # message posted by the other side of a barrier at this time).
        sim.schedule_wakeup(sim.time_ps)
        assert sim.run_until(lambda: idle.ticks >= 2, max_time_ps=1e6)
        # The woken component runs on the very next edge, not never.
        assert idle.ticks == 2
        assert sim.time_ps == 44_000

    def test_at_now_entry_consumed_not_leaked(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(4)
        sim.schedule_wakeup(sim.time_ps)
        sim.schedule_wakeup(sim.time_ps)  # duplicates collapse on fire
        sim.run_until(lambda: idle.ticks >= 2, max_time_ps=1e6)
        assert sim._wakeups == []


class TestClampedBoundaryRegression:
    """``max_time_ps`` clamping the idle-skip must not overshoot.

    The old clamped path woke every parked domain and landed cycles just
    before the bound, then ``run_until``'s unconditional ``step()``
    ticked the first edge at-or-past the bound before the top-of-loop
    check could stop the run.  The contract now: the clamped path lands
    ``time_ps`` exactly on ``ceil(max_time_ps)``, ticks nothing, wakes
    nothing, and ``run_until`` returns False with every domain on its
    last edge strictly before the bound (so a later run resumes by
    crossing the first edge at or after it).
    """

    def test_clamped_skip_does_not_tick_past_bound(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(1)  # parks idle; time_ps == 4000
        sim.schedule_wakeup(10**9)  # real wakeup far beyond the bound
        assert not sim.run_until(lambda: False, max_time_ps=499_000)
        assert sim.time_ps == 499_000  # old kernel: 500_000
        assert idle.ticks == 1  # old kernel: 2 (edge past the bound)
        # Landing contract: next step crosses the first edge >= bound.
        assert sim.domains["main"].cycle == 124
        assert sim.domains["main"].next_edge_ps == 500_000
        # The out-of-bound wakeup survives for a later, longer run.
        assert sim._wakeups[0] == 10**9

    def test_clamped_skip_leaves_components_parked(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(1)
        parked_before = set(sim.domains["main"]._parked)
        sim.schedule_wakeup(10**9)
        sim.run_until(lambda: False, max_time_ps=499_000)
        assert set(sim.domains["main"]._parked) == parked_before

    def test_wakeup_exactly_on_bound_is_clamped(self):
        # A wakeup at exactly ceil(max_time_ps) is outside the run's
        # half-open window: land on the bound, do not fire it.
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(1)
        sim.schedule_wakeup(500_000)
        assert not sim.run_until(lambda: False, max_time_ps=500_000)
        assert sim.time_ps == 500_000
        assert idle.ticks == 1
        assert sim._wakeups[0] == 500_000

    def test_resumed_run_fires_the_clamped_wakeup(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        idle = TickCounter(busy_flag=False)
        sim.add_component(idle, "main")
        sim.run_cycles(1)
        sim.schedule_wakeup(10**6)
        assert not sim.run_until(lambda: False, max_time_ps=499_000)
        # A later run with a wider bound picks the wakeup back up.
        assert sim.run_until(lambda: idle.ticks >= 2, max_time_ps=2e6)
        assert sim.time_ps == 10**6  # 1 us is exactly edge 250


class TestRunCyclesMatchesStepping:
    """Satellite 3: the single-domain fast path recomputed time in float."""

    @pytest.mark.parametrize("freq_hz", [250e6, 322e6])
    def test_run_cycles_equals_n_steps(self, freq_hz):
        n = 12_345
        fast = Simulator()
        fast.add_domain("main", freq_hz)
        fast.add_component(TickCounter(), "main")
        fast.run_cycles(n)

        stepped = Simulator()
        stepped.add_domain("main", freq_hz)
        stepped.add_component(TickCounter(), "main")
        for _ in range(n):
            stepped.step()

        assert fast.time_ps == stepped.time_ps
        assert isinstance(fast.time_ps, int)

    def test_split_runs_land_on_same_time(self, freq_hz=322e6):
        whole = Simulator()
        whole.add_domain("main", freq_hz)
        whole.add_component(TickCounter(), "main")
        whole.run_cycles(1000)

        split = Simulator()
        split.add_domain("main", freq_hz)
        split.add_component(TickCounter(), "main")
        for chunk in (1, 10, 489, 500):
            split.run_cycles(chunk)
        assert split.time_ps == whole.time_ps


class EdgeRecorder(Component):
    """Appends (domain_name, domain_cycle, t_ps) to a shared log."""

    def __init__(self, name, sim, log):
        super().__init__(name)
        self.sim = sim
        self.log = log

    def tick(self):
        super().tick()
        domain = self.sim.domains[self.name]
        self.log.append((self.name, domain.cycle, self.sim.time_ps))


def _record_edges(steps=2000, reset_first=False):
    sim = Simulator()
    log = []
    sim.add_domain("engine", 250e6)
    sim.add_domain("eth", 322e6)
    sim.add_component(EdgeRecorder("engine", sim, log), "engine")
    sim.add_component(EdgeRecorder("eth", sim, log), "eth")
    if reset_first:
        for _ in range(steps // 3):
            sim.step()
        sim.reset()
        log.clear()
    for _ in range(steps):
        sim.step()
    return log


class TestKernelDeterminism:
    """Satellite 4: identical edge sequences across runs and after reset."""

    def test_edge_sequence_reproducible_across_runs(self):
        assert _record_edges() == _record_edges()

    def test_edge_sequence_identical_after_reset(self):
        assert _record_edges() == _record_edges(reset_first=True)

    def test_simultaneous_edges_tie_break_by_registration_order(self):
        # 250 MHz and 322 MHz edges coincide every 500 ns (lcm of the
        # exact rational periods).  At each coincidence the first
        # registered domain must tick first.
        log = _record_edges(steps=5000)
        by_time = {}
        for index, (name, _cycle, t_ps) in enumerate(log):
            by_time.setdefault(t_ps, []).append((index, name))
        ties = {t: entries for t, entries in by_time.items()
                if len(entries) > 1}
        assert ties, "expected coincident 250/322 MHz edges"
        for entries in ties.values():
            names = [name for _idx, name in sorted(entries)]
            assert names == ["engine", "eth"]

    def test_registration_order_controls_tie_break(self):
        # Reverse registration order -> reversed order at coincidences.
        sim = Simulator()
        log = []
        sim.add_domain("eth", 322e6)
        sim.add_domain("engine", 250e6)
        sim.add_component(EdgeRecorder("eth", sim, log), "eth")
        sim.add_component(EdgeRecorder("engine", sim, log), "engine")
        for _ in range(5000):
            sim.step()
        by_time = {}
        for index, (name, _cycle, t_ps) in enumerate(log):
            by_time.setdefault(t_ps, []).append((index, name))
        ties = [entries for entries in by_time.values() if len(entries) > 1]
        assert ties
        for entries in ties:
            names = [name for _idx, name in sorted(entries)]
            assert names == ["eth", "engine"]


class TestBusySet:
    """Idle components are parked, not ticked every edge."""

    def test_idle_component_stops_ticking(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        busy = TickCounter("busy", busy_flag=True)
        lazy = TickCounter("lazy", busy_flag=False)
        sim.add_component(busy, "main")
        sim.add_component(lazy, "main")
        sim.run_cycles(100)
        assert busy.ticks == 100
        assert lazy.ticks == 1  # parked after its first tick

    def test_wake_rejoins_at_current_cycle(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        busy = TickCounter("busy", busy_flag=True)
        lazy = TickCounter("lazy", busy_flag=False)
        sim.add_component(busy, "main")
        sim.add_component(lazy, "main")
        sim.run_cycles(50)
        lazy.busy_flag = True
        sim.wake(lazy, domain="main")
        assert lazy.cycle == sim.domains["main"].cycle
        sim.run_cycles(50)
        assert lazy.ticks == 51

    def test_wakeup_skip_wakes_parked_components(self):
        sim = Simulator()
        sim.add_domain("main", 250e6)
        lazy = TickCounter("lazy", busy_flag=False)
        sim.add_component(lazy, "main")
        sim.schedule_wakeup(80_000)
        sim.schedule_wakeup(160_000)
        assert sim.run_until(lambda: lazy.ticks >= 2, max_time_ps=1e6,
                             max_steps=1000)
        # Parked after its tick at 80 µs, woken again by the 160 µs skip.
        assert lazy.ticks == 2
        assert sim.time_ps == 160_000

    def test_components_added_while_parked_are_ticked(self):
        sim = Simulator()
        domain = sim.domains.get("main") or sim.add_domain("main", 250e6)
        lazy = TickCounter("lazy", busy_flag=False)
        sim.add_component(lazy, "main")
        sim.run_cycles(10)  # parks lazy
        late = TickCounter("late", busy_flag=True)
        sim.add_component(late, "main")
        sim.run_cycles(10)
        assert late.ticks == 10
        assert domain.busy()
