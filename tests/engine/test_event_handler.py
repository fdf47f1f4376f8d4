"""Event accumulation and the dual-memory valid-bit merge (§4.2.1/§4.2.3)."""

from hypothesis import given, strategies as st

from repro.engine.event_handler import (
    EventEntry,
    EventHandler,
    V_ACK,
    V_DUP,
    V_FLAGS,
    V_REQ,
    accumulate_event,
    merge_into_tcb,
)
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.sim.memory import DualPortSRAM
from repro.tcp.state_machine import TcpState
from repro.tcp.tcb import Tcb

from ._check_logic_oracle import copy_entry


class TestAccumulation:
    def test_pointer_overwrite(self):
        """The paper's walk-through: REQ 1000 then +300 B -> REQ 1300."""
        entry = EventEntry()
        accumulate_event(entry, user_send_event(1, 1000, 0.0))
        accumulate_event(entry, user_send_event(1, 1300, 0.1))
        assert entry.req == 1300
        assert entry.valid & V_REQ

    def test_pointers_never_regress(self):
        entry = EventEntry()
        accumulate_event(entry, user_send_event(1, 1300, 0.0))
        accumulate_event(entry, user_send_event(1, 1000, 0.1))
        assert entry.req == 1300

    def test_window_keeps_last_value(self):
        entry = EventEntry()
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, wnd=5000))
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, wnd=100))
        assert entry.wnd == 100  # the last value holds the truth

    def test_dupack_increments(self):
        """The single-cycle RMW: counting, not overwriting."""
        entry = EventEntry()
        for _ in range(4):
            accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, dup_incr=1))
        assert entry.dup_pending == 4
        assert entry.valid & V_DUP

    def test_flags_or_accumulate(self):
        entry = EventEntry()
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, fin=True))
        accumulate_event(entry, TcpEvent(EventKind.TIMEOUT, 1, timeout=True))
        assert entry.fin and entry.timeout
        assert entry.valid & V_FLAGS

    def test_clear_resets_valid_and_flags(self):
        entry = EventEntry()
        accumulate_event(
            entry, TcpEvent(EventKind.RX_PACKET, 1, ack=5, fin=True, dup_incr=2)
        )
        entry.clear()
        assert entry.valid == 0
        assert entry.dup_pending == 0
        assert not entry.fin

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=30))
    def test_accumulated_req_equals_running_max(self, pointers):
        """Invariant 1 (DESIGN.md): accumulation loses no information —
        the entry holds exactly the furthest request pointer."""
        entry = EventEntry()
        for pointer in pointers:
            accumulate_event(entry, user_send_event(1, pointer, 0.0))
        assert entry.req == max(pointers)


class TestEventHandlerOverTable:
    def test_handle_creates_and_reuses_entries(self):
        table = DualPortSRAM(4)
        handler = EventHandler(table)
        handler.handle(2, user_send_event(1, 100, 0.0))
        handler.handle(2, user_send_event(1, 200, 0.1))
        assert table.read(2).req == 200
        assert handler.events_handled == 2

    def test_slots_are_independent(self):
        table = DualPortSRAM(4)
        handler = EventHandler(table)
        handler.handle(0, user_send_event(1, 100, 0.0))
        handler.handle(1, user_send_event(2, 999, 0.0))
        assert table.read(0).req == 100
        assert table.read(1).req == 999


class TestMergeIntoTcb:
    def make_tcb(self):
        tcb = Tcb(flow_id=1, state=TcpState.ESTABLISHED)
        tcb.req = 70
        tcb.snd_nxt = 60
        tcb.snd_una = 40
        return tcb

    def test_paper_walkthrough(self):
        """Fig 4's example: req=80 written, TCB (70, 60, 40) read ->
        constructed TCB (80, 60, 40), valid bits cleared."""
        tcb = self.make_tcb()
        entry = EventEntry()
        accumulate_event(entry, user_send_event(1, 80, 0.0))
        merge_into_tcb(tcb, entry)
        assert tcb.req == 80
        assert tcb.snd_nxt == 60
        assert tcb.snd_una == 40
        assert entry.valid == 0  # step ④: clear all valid bits

    def test_invalid_fields_do_not_overwrite(self):
        tcb = self.make_tcb()
        entry = EventEntry()
        entry.req = 999  # stale value, valid bit NOT set
        merge_into_tcb(tcb, entry)
        assert tcb.req == 70

    def test_ack_is_staged_for_the_fpu(self):
        tcb = self.make_tcb()
        entry = EventEntry()
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, ack=55))
        merge_into_tcb(tcb, entry)
        # snd_una advances only inside the FPU; merge stages the value.
        assert tcb.snd_una == 40
        assert tcb.cc["_latest_ack"] == 55

    def test_dup_count_returned(self):
        tcb = self.make_tcb()
        entry = EventEntry()
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, dup_incr=3))
        assert merge_into_tcb(tcb, entry) == 3

    def test_flags_transfer(self):
        tcb = self.make_tcb()
        entry = EventEntry()
        accumulate_event(
            entry,
            TcpEvent(EventKind.RX_PACKET, 1, fin=True, ack_needed=True),
        )
        merge_into_tcb(tcb, entry)
        assert tcb.fin_received and tcb.ack_pending

    def test_merge_twice_applies_once(self):
        """Invariant 2: the valid-bit protocol never double-applies."""
        tcb = self.make_tcb()
        entry = EventEntry()
        accumulate_event(entry, TcpEvent(EventKind.RX_PACKET, 1, dup_incr=2))
        assert merge_into_tcb(tcb, entry) == 2
        assert merge_into_tcb(tcb, entry) == 0  # already consumed

    def test_copy_entry_isolated(self):
        entry = EventEntry()
        accumulate_event(entry, user_send_event(1, 500, 0.0))
        clone = copy_entry(entry)
        merge_into_tcb(self.make_tcb(), clone)  # clears the clone
        assert entry.valid & V_REQ  # original untouched (check logic)
