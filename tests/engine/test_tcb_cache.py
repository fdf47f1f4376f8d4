"""The direct-mapped TCB cache in front of DRAM (repro.mem.hierarchy).

A flow's line is ``flow_id % entries``; a miss fills it and writes back
the flow it displaces.  The cache is held against a modulo-list model,
fuzzed under churn with the race sanitizer on the memory manager, and
pinned on the engine by a spill that overflows it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.roundrobin import round_robin_scenario
from repro.check.race import RaceSanitizer
from repro.engine.events import EventKind, TcpEvent
from repro.engine.ftengine import FtEngineConfig
from repro.engine.memory_manager import MemoryManager
from repro.engine.testbed import Testbed
from repro.mem.hierarchy import TcbCacheHierarchy
from repro.obs.hooks import attach_load_engine
from repro.obs.trace import TraceBus, fingerprint
from repro.sim.memory import DRAMModel
from repro.tcp.tcb import Tcb
from repro.traffic.engine import LoadEngine


class TestDirectCompat:
    """The cache behaves exactly like the modulo list it replaced."""

    def test_matches_modulo_model(self):
        entries = 32
        cache = TcbCacheHierarchy(entries)
        model = [None] * entries
        rng = random.Random(5)
        for _ in range(2000):
            flow = rng.randrange(200)
            slot = flow % entries
            hit, victim = cache.access(flow)
            if model[slot] == flow:
                assert hit and victim is None
            else:
                assert not hit
                assert victim == model[slot]
                model[slot] = flow

    def test_invalidate(self):
        cache = TcbCacheHierarchy(8)
        cache.access(0)
        assert cache.invalidate(0)
        assert 0 not in cache
        assert not cache.invalidate(0)
        assert cache.invalidations == 1
        cache.access(8)  # line 0 again, another tag
        assert not cache.invalidate(0)
        assert 8 in cache


class TestModelBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=60), max_size=300),
        st.sampled_from([1, 8, 64]),
    )
    def test_containment_matches_fill_minus_writeback(self, stream, entries):
        """Every accessed flow is resident until written back."""
        cache = TcbCacheHierarchy(entries)
        resident = set()
        for flow in stream:
            _, victim = cache.access(flow)
            resident.add(flow)
            resident.discard(victim)
            assert flow in cache
        assert resident == {flow for flow in range(61) if flow in cache}
        assert len(resident) == len(cache) <= entries


class TestStats:
    def test_flat_stats_shape(self):
        cache = TcbCacheHierarchy(8)
        for flow in range(20):
            cache.access(flow)
        cache.access(19)
        assert cache.stats() == {
            "hits": 1,
            "misses": 20,
            "writebacks": 12,
            "invalidations": 0,
            "occupancy": 8,
            "capacity": 8,
        }


class TestChurnFuzz:
    def test_oracle_residency_at_high_load(self):
        rng = random.Random(42)
        cache = TcbCacheHierarchy(64)
        resident = set()
        for step in range(5000):
            flow = rng.randrange(200) if rng.random() < 0.7 else 1000 + step
            hit, victim = cache.access(flow)
            assert (flow in resident) == hit
            resident.add(flow)
            resident.discard(victim)
        assert len(resident) == len(cache)
        assert all(flow in cache for flow in resident)
        # Churn keeps the cache saturated: >90% of lines occupied.
        assert len(resident) > 0.9 * cache.entries

    def test_eviction_windows_sanitizer_clean(self):
        """Memory-manager swaps under churn leave the sanitizer clean."""
        manager = MemoryManager(DRAMModel.hbm(), cache_entries=64)
        manager.san = RaceSanitizer()
        rng = random.Random(9)
        live = []
        for step in range(3000):
            roll = rng.random()
            if roll < 0.4 or len(live) < 8:
                flow = 10_000 + step
                manager.store(Tcb(flow_id=flow))
                live.append(flow)
            elif roll < 0.7:
                manager.handle_event(
                    TcpEvent(EventKind.RX_PACKET, rng.choice(live))
                )
                manager.tick()
            else:
                victim = live.pop(rng.randrange(len(live)))
                manager.take(victim)
        assert manager.san.ok, manager.san.report()
        assert manager.cache.writebacks > 0
        assert manager.san.tally > 0


#: 1,024 round-robin flows, two rounds, on 4 x 16 TCB slots: 960 flows
#: per engine live in DRAM behind 512 cache lines, so misses write back.
#: Captured before the cache shrank to one direct-mapped level; the
#: engine's other spill goldens never displace a line.
GOLDEN_WRITEBACK = "4d805f900f1c1f76333487a6b74f24d3e28c2d2f258aa46fa569327d46165818"
WRITEBACK_CACHE_STATS = [
    {"hits": 606, "misses": 11879, "writebacks": 5677, "invalidations": 5706},
    {"hits": 2930, "misses": 6888, "writebacks": 2952, "invalidations": 3439},
]


def test_a_spill_past_the_cache_writes_back_as_pinned():
    config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
    load_engine = LoadEngine(
        round_robin_scenario(1024, 2, 128),
        testbed=Testbed(config_a=config, config_b=config),
    )
    bus = TraceBus()
    attach_load_engine(load_engine, bus)
    result = load_engine.run(setup_time_s=5.0, run_time_s=2.0)
    assert result.finished and result.completed == result.offered == 2048
    testbed = load_engine.testbed
    stats = [
        engine.memory_manager.cache.stats()
        for engine in (testbed.engine_a, testbed.engine_b)
    ]
    keys = ("hits", "misses", "writebacks", "invalidations")
    assert [{k: s[k] for k in keys} for s in stats] == WRITEBACK_CACHE_STATS
    assert fingerprint(bus.events) == GOLDEN_WRITEBACK
