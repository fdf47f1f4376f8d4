"""Race sanitizer: injected violations are caught, clean runs stay clean.

The fault-injection fixtures corrupt the event-table path out-of-band
(bypassing the instrumented writers) the way a broken dual-memory
implementation would, then check the sanitizer names the hazard.
"""

import inspect
import textwrap

import pytest

from repro.apps.roundrobin import round_robin_scenario
from repro.check.race import (
    RaceSanitizer,
    WRITER_EVENT_HANDLER,
    attach_sanitizer,
    run_race_check,
)
from repro.engine.baseline import NullFpu
from repro.engine.event_handler import V_ACK, V_REQ, V_SACK
from repro.engine.events import user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.engine.ftengine import FtEngineConfig
from repro.engine.memory_manager import MemoryManager
from repro.engine.testbed import Testbed
from repro.tcp.state_machine import TcpState
from repro.traffic import LoadEngine

from .._records import make_tcb


def make_fpc(san):
    fpc = FlowProcessingCore(0, slots=4, fpu=NullFpu(4))
    fpc.san = san
    fpc.accept_tcb(make_tcb(flow_id=0, state=TcpState.ESTABLISHED))
    return fpc


def run_until(fpc, predicate, max_cycles=200):
    for _ in range(max_cycles):
        fpc.tick()
        fpc.drain_results()
        if predicate():
            return True
    return False


class TestValidBitInjection:
    def test_ghost_valid_bit_detected(self):
        """A valid bit set without an accumulate = FPU reads garbage."""
        san = RaceSanitizer()
        fpc = make_fpc(san)
        fpc.offer_event(user_send_event(0, 100, 0))
        assert run_until(fpc, lambda: fpc.events_accepted == 1)
        # Corrupt the event table out-of-band: set SACK-valid even
        # though no SACK event was ever handled.
        fpc._entries[fpc._slot_of[0]].valid |= V_SACK
        assert run_until(fpc, lambda: not san.ok)
        finding = san.findings[0]
        assert finding.kind == "valid-bit"
        assert finding.table == "fpc0.events"
        assert "sack" in finding.message
        assert "never accumulated" in finding.message

    def test_lost_valid_bit_detected(self):
        """A cleared bit after an accumulate = the update silently drops."""
        san = RaceSanitizer()
        fpc = make_fpc(san)
        fpc.offer_event(user_send_event(0, 100, 0))
        assert run_until(fpc, lambda: fpc.events_accepted == 1)
        fpc._entries[fpc._slot_of[0]].valid = 0  # drop every accumulated bit
        assert run_until(fpc, lambda: not san.ok)
        finding = san.findings[0]
        assert finding.kind == "valid-bit"
        assert "lost" in finding.message

    def test_uncorrupted_run_is_clean(self):
        san = RaceSanitizer()
        fpc = make_fpc(san)
        for n in range(5):
            fpc.offer_event(user_send_event(0, 100 * (n + 1), 0.0))
        assert run_until(fpc, lambda: fpc.tcbs_processed >= 3)
        assert san.ok, san.report()
        assert san.tally > 0


class TestDualWriterInjection:
    def test_same_cycle_double_allocation_detected(self):
        """A slot handed to a swap-in while the FPU writes it back."""
        san = RaceSanitizer()
        fpc = make_fpc(san)
        fpc.offer_event(user_send_event(0, 100, 0))
        before = fpc.tcbs_processed
        assert run_until(fpc, lambda: fpc.tcbs_processed > before)
        assert san.ok
        # Inject a scheduler bug: the slot the FPU just wrote back is
        # double-allocated to an incoming swap-in in the same cycle.
        slot = fpc._slot_of[0]
        san.on_accept(fpc.fpc_id, fpc.cycle, slot, flow_id=99, valid=0)
        dual = [f for f in san.findings if f.kind == "dual-writer"]
        assert dual, san.report()
        assert dual[0].table == "fpc0.tcb"
        assert dual[0].cycle == fpc.cycle
        assert "one writer" in dual[0].message

    def test_event_handler_vs_swap_in_detected(self):
        san = RaceSanitizer()
        san.on_event_write(0, cycle=10, slot=2, flow_id=5, valid=V_REQ)
        san.on_accept(0, cycle=10, slot=2, flow_id=5, valid=0)
        dual = [f for f in san.findings if f.kind == "dual-writer"]
        assert dual and dual[0].table == "fpc0.events"
        assert WRITER_EVENT_HANDLER in dual[0].message

    def test_different_cycles_ok(self):
        san = RaceSanitizer()
        san.on_event_write(0, cycle=10, slot=2, flow_id=5, valid=V_REQ)
        san.on_accept(0, cycle=11, slot=2, flow_id=5, valid=0)
        assert not [f for f in san.findings if f.kind == "dual-writer"]


class TestMigrationWindow:
    def test_lost_update_during_evict_window_detected(self):
        """An event applied to the DRAM copy while the live TCB is still
        in an FPC never reaches it (the Fig 6 hazard)."""
        san = RaceSanitizer()
        san.on_event_write(0, cycle=5, slot=1, flow_id=3, valid=V_REQ)
        san.on_evict_request(0, cycle=20, flow_id=3)
        san.on_dram_write(cycle=40, flow_id=3, valid=V_ACK)
        lost = [f for f in san.findings if f.kind == "lost-update"]
        assert lost, san.report()
        assert "evict window open since cycle 20" in lost[0].message

    def test_completed_migration_is_clean(self):
        san = RaceSanitizer()
        san.on_event_write(0, cycle=5, slot=1, flow_id=3, valid=V_REQ)
        san.on_evict_request(0, cycle=20, flow_id=3)
        san.on_evicted(0, cycle=25, slot=1, flow_id=3)
        san.on_dram_store(cycle=30, flow_id=3)
        san.on_dram_write(cycle=40, flow_id=3, valid=V_ACK)
        assert san.ok, san.report()

    def test_stale_write_to_wrong_fpc_detected(self):
        san = RaceSanitizer()
        san.on_event_write(0, cycle=5, slot=1, flow_id=3, valid=V_REQ)
        san.on_event_write(1, cycle=7, slot=0, flow_id=3, valid=V_REQ)
        stale = [f for f in san.findings if f.kind == "stale-write"]
        assert stale and "location LUT" in stale[0].message


def mutant(method, old, new):
    """``method`` recompiled in its own module with ``old`` (which must
    occur once in its source) replaced by ``new``."""
    source = inspect.getsource(method)
    assert source.count(old) == 1, old
    namespace = {}
    code = compile(textwrap.dedent(source.replace(old, new)),
                   inspect.getsourcefile(method), "exec")
    exec(code, method.__globals__, namespace)
    return namespace[method.__name__]


CACHE_KINDS = {"ghost-cache-line", "dup-cache-line"}


def spill_kinds():
    """The finding kinds of a sanitized spilling run: 32 flows over one
    FPC of 8 slots per engine, so the memory manager, DRAM and TCB
    cache are on the path."""
    config = FtEngineConfig(num_fpcs=1, fpc_slots=8)
    testbed = Testbed(config_a=config, config_b=config)
    san = RaceSanitizer()
    attach_sanitizer(testbed, san)
    LoadEngine(round_robin_scenario(32, 2, 128), testbed=testbed).run()
    assert testbed.engine_a.memory_manager.cache.hits > 0
    return {finding.kind for finding in san.findings}


class TestTcbCacheShadow:
    """A mutated memory manager on a spilling build: the cache shadow
    names a line that outlives its DRAM copy or is filled twice."""

    def test_spilling_run_keeps_the_cache_shadow(self):
        assert not spill_kinds() & CACHE_KINDS

    @pytest.mark.parametrize("method, old, new, kind", [
        # A swap-in that leaves the flow's line in the cache.
        ("take", "self.cache.invalidate(flow_id)\n"
                 "            if self.san is not None:\n"
                 "                self.san.on_cache_invalidate(flow_id)", "pass",
         "ghost-cache-line"),
        # A hit charged as a miss: the line is filled again.
        ("_touch_cache", '"hit", flow_id,\n                )\n            return',
         '"hit", flow_id,\n                )', "dup-cache-line"),
    ])
    def test_mutated_manager_detected(self, monkeypatch, method, old, new, kind):
        original = getattr(MemoryManager, method)
        monkeypatch.setattr(MemoryManager, method, mutant(original, old, new))
        assert kind in spill_kinds()


class TestAttachment:
    def test_testbed_engines_get_distinct_namespaces(self):
        """Both engines number their FPCs and flows from zero; the
        sanitizer must not let a/fpc0 and b/fpc0 clobber each other."""
        testbed = Testbed()
        san = RaceSanitizer()
        attach_sanitizer(testbed, san)
        view_a = testbed.engine_a.fpcs[0].san
        view_b = testbed.engine_b.fpcs[0].san
        assert view_a.label == "a/" and view_b.label == "b/"
        # Views share one findings list and one counter set.
        assert view_a.findings is san.findings
        assert view_b._counts is san._counts

    def test_detach(self):
        testbed = Testbed()
        attach_sanitizer(testbed, RaceSanitizer())
        attach_sanitizer(testbed, None)
        assert testbed.engine_a.fpcs[0].san is None
        assert testbed.engine_a.memory_manager.san is None

    def test_sanitized_churn_run_is_clean(self):
        """The CI gate: the shipped engine passes its own sanitizer."""
        san, result = run_race_check("churn", seed=7)
        assert san.ok, san.report()
        assert san.tally > 0
        assert getattr(result, "finished", True)
