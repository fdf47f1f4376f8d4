"""The DRAM memory manager: handling, cache, check logic (§4.3.1)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.event_handler import (
    V_ACK, V_DUP, V_FLAGS, V_REQ, V_WND, EventEntry,
)
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.memory_manager import MemoryManager, check_logic
from repro.sim.memory import DRAMModel
from repro.tcp.seq import SEQ_MOD
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb

from ._check_logic_oracle import check_logic_by_merging


def make_manager(cache_entries=8, memory="hbm"):
    dram = DRAMModel.hbm() if memory == "hbm" else DRAMModel.ddr4()
    return MemoryManager(dram, cache_entries=cache_entries), dram


class TestResidency:
    def test_store_take_roundtrip(self):
        manager, _ = make_manager()
        tcb = Tcb(flow_id=7, state=TcpState.ESTABLISHED)
        manager.store(tcb)
        assert 7 in manager
        taken, entry = manager.take(7)
        assert taken is tcb
        assert entry.valid == 0
        assert 7 not in manager

    def test_take_unknown_raises(self):
        manager, _ = make_manager()
        with pytest.raises(KeyError):
            manager.take(404)

    def test_peek(self):
        manager, _ = make_manager()
        manager.store(Tcb(flow_id=1))
        assert manager.peek_tcb(1).flow_id == 1
        assert manager.peek_tcb(2) is None


class TestEventHandling:
    def test_events_are_handled_not_processed(self):
        """§4.3.1: the memory manager handles like the event handler —
        the TCB's architectural pointers stay put until an FPC pass."""
        manager, _ = make_manager()
        tcb = Tcb(flow_id=1, state=TcpState.ESTABLISHED)
        manager.store(tcb)
        manager.handle_event(user_send_event(1, 5000, 0.0))
        assert tcb.snd_nxt == 0  # untouched: no TCP processing here
        _, entry = manager.take(1)
        assert entry.req == 5000  # but the information is retained

    def test_event_for_absent_flow_ignored(self):
        manager, _ = make_manager()
        manager.handle_event(user_send_event(9, 1, 0.0))  # no crash
        assert manager.events_handled == 0

    def test_events_accumulate(self):
        manager, _ = make_manager()
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        for pointer in (100, 300, 200):
            manager.handle_event(user_send_event(1, pointer, 0.0))
        _, entry = manager.take(1)
        assert entry.req == 300


class TestCheckLogic:
    def test_sendable_flow_requests_swap_in(self):
        manager, _ = make_manager()
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        manager.handle_event(user_send_event(1, 1000, 0.0))
        assert manager.drain_swap_in_requests() == [1]

    def test_unsendable_flow_waits_in_dram(self):
        """'If the flow cannot send packets, it can wait in the memory
        manager' (§4.3.1) — a pure window update triggers no swap."""
        manager, _ = make_manager()
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        manager.handle_event(TcpEvent(EventKind.RX_PACKET, 1, wnd=9999))
        assert manager.drain_swap_in_requests() == []

    def test_check_logic_does_not_mutate(self):
        manager, _ = make_manager()
        tcb = Tcb(flow_id=1, state=TcpState.ESTABLISHED)
        manager.store(tcb)
        manager.handle_event(user_send_event(1, 1000, 0.0))
        _, entry = manager.take(1)
        assert entry.valid != 0  # events still pending, not consumed

    def test_swap_in_requested_once(self):
        manager, _ = make_manager()
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        manager.handle_event(user_send_event(1, 1000, 0.0))
        manager.handle_event(user_send_event(1, 2000, 0.0))
        assert manager.drain_swap_in_requests() == [1]


# Sequence pointers near one another (and near the wrap point), so that
# "nothing unsent", "window full" and "room to send" all come up.
_BASE = st.sampled_from([0, 1000, SEQ_MOD - 3000])
_NEAR = st.integers(min_value=0, max_value=4000)
_WINDOW = st.sampled_from([0, 0, 1, 1460, 2920, 65535])
_FLAG = st.booleans()


@st.composite
def _tcbs(draw):
    base = draw(_BASE)
    snd_una = (base + draw(_NEAR)) % SEQ_MOD
    snd_nxt = (snd_una + draw(_NEAR)) % SEQ_MOD
    cc = {}
    if draw(_FLAG):
        cc["_latest_ack"] = draw(st.one_of(st.none(), _NEAR))
    if draw(_FLAG):
        cc["_connect_req"] = draw(_FLAG)
    return Tcb(
        flow_id=1,
        req=(base + draw(st.integers(min_value=0, max_value=9000))) % SEQ_MOD,
        snd_una=snd_una, snd_nxt=snd_nxt,
        snd_wnd=draw(_WINDOW), cwnd=draw(_WINDOW),
        dupacks=draw(st.integers(min_value=0, max_value=4)),
        ack_pending=draw(_FLAG), timeout_pending=draw(_FLAG),
        close_requested=draw(_FLAG), fin_sent=draw(_FLAG),
        syn_received=draw(_FLAG), fin_received=draw(_FLAG),
        rst_received=draw(_FLAG), cc=cc,
    )


@st.composite
def _entries(draw, base=_BASE):
    """Any subset of valid bits over any field values: a field whose
    bit is clear must not count, whatever it holds."""
    return EventEntry(
        valid=draw(st.integers(min_value=0, max_value=(1 << 10) - 1)),
        req=(draw(base) + draw(st.integers(min_value=0, max_value=9000))) % SEQ_MOD,
        ack=draw(_NEAR), wnd=draw(_WINDOW),
        dup_pending=draw(st.integers(min_value=0, max_value=4)),
        fin=draw(_FLAG), syn=draw(_FLAG), rst=draw(_FLAG),
        timeout=draw(_FLAG), ack_needed=draw(_FLAG),
        connect=draw(_FLAG), close=draw(_FLAG),
    )


class TestCheckLogicFunction:
    """``check_logic`` reads the answer off ``(tcb, entry)``; the form
    it replaced cloned, merged and asked (the oracle)."""

    @settings(max_examples=1000, deadline=None)
    @given(tcb=_tcbs(), entry=_entries())
    # Zero window with data waiting: the probe goes out.
    @example(tcb=Tcb(1, req=100, snd_wnd=0), entry=EventEntry())
    @example(tcb=Tcb(1), entry=EventEntry(valid=V_REQ | V_WND, req=100, wnd=0))
    # ``close`` after ``req``: the FIN waits for the data before it.
    @example(tcb=Tcb(1, cwnd=0), entry=EventEntry(valid=V_REQ | V_FLAGS, req=100, close=True))
    @example(tcb=Tcb(1, req=100, snd_nxt=100), entry=EventEntry(valid=V_FLAGS, close=True))
    @example(tcb=Tcb(1, fin_sent=True), entry=EventEntry(valid=V_FLAGS, close=True))
    # A dup-ACK-only entry moves nothing the predicate reads.
    @example(tcb=Tcb(1, dupacks=2), entry=EventEntry(valid=V_DUP, dup_pending=3))
    @example(tcb=Tcb(1, dupacks=3), entry=EventEntry(valid=V_DUP, dup_pending=1))
    # Flags without their valid bit, an ACK with it.
    @example(tcb=Tcb(1), entry=EventEntry(syn=True, connect=True, ack_needed=True))
    @example(tcb=Tcb(1), entry=EventEntry(valid=V_ACK, ack=0))
    def test_equals_the_clone_and_merge_form(self, tcb, entry):
        before = (dict(vars(tcb)), dict(tcb.cc), dict(vars(entry)))
        assert check_logic(tcb, entry) is check_logic_by_merging(tcb, entry)
        # Neither form processes or writes back (§4.3.1).
        assert (dict(vars(tcb)), dict(tcb.cc), dict(vars(entry))) == before

    def test_both_answers_occur(self):
        """The strategies are not stuck on one side of the predicate."""
        tcb = Tcb(1, req=5000, cwnd=1460, snd_wnd=65535)
        assert check_logic(tcb, EventEntry())
        tcb.snd_nxt, tcb.snd_una = 1460, 0  # a full window in flight
        assert not check_logic(tcb, EventEntry())
        assert check_logic(tcb, EventEntry(valid=V_WND, wnd=0))
        assert not check_logic(tcb, EventEntry(wnd=0))


class TestCacheAccounting:
    def test_hits_are_free_misses_pay_dram(self):
        manager, dram = make_manager(cache_entries=8)
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        requests_after_store = dram.requests
        manager.handle_event(user_send_event(1, 10, 0.0))  # hit: cached
        assert dram.requests == requests_after_store
        assert manager.cache_hits >= 1

    def test_conflicting_flows_thrash_the_cache(self):
        manager, dram = make_manager(cache_entries=4)
        # Flows 1 and 5 collide in a 4-entry direct-mapped cache.
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        manager.store(Tcb(flow_id=5, state=TcpState.ESTABLISHED))
        baseline = dram.requests
        manager.handle_event(user_send_event(1, 10, 0.0))  # miss
        manager.handle_event(user_send_event(5, 10, 0.0))  # miss again
        assert dram.requests > baseline
        assert manager.cache_misses >= 2

    def test_tick_stalls_while_dram_busy(self):
        manager, dram = make_manager(memory="ddr4")
        manager.store(Tcb(flow_id=1, state=TcpState.ESTABLISHED))
        manager.offer_event(user_send_event(1, 10, 0.0))
        dram.busy_until_ps = 1e12  # channel artificially saturated
        manager.tick()
        assert manager.events_handled == 0  # stalled, not dropped
        assert len(manager.input) == 1
