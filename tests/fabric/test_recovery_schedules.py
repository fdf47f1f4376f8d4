"""SoftStack loss recovery under fixed fault schedules.

Every schedule drops, delays, duplicates or CE-marks chosen segments —
by direction, kind and index, no RNG — of one whole connection:
handshake, a bulk or request/response transfer, and FIN teardown on
both sides.  On every schedule the bytes arrive exactly, both ends
reach CLOSED with nothing left in ``flows`` or ``_by_key`` — at the
instant they close and again once every late segment has landed — and,
for the fixed schedules, the recovery counters at the close equal the
table below.  The held-open schedules first leave the connection idle
past the handshake timeout, so both ends park, and then send on it,
close it or hit it with a stray handshake copy or a late FIN.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.service import FlexToeService
from repro.fabric.softstack import HANDSHAKE_RTO_PS, SoftStack
from repro.sim.component import NEVER
from repro.tcp.segment import FlowKey

from ._soft_testbed import (
    Fault, FaultSchedule, SoftTestbed, SwitchTestbed,
    hold_the_switch_to_its_landings,
)

#: Bulk: one 64 KiB stream a -> b (45 segments), then FIN both ways.
BULK_BYTES = 64 * 1024
#: RPC: request/response rounds on one connection, then FIN both ways.
RPC_ROUNDS, RPC_REQUEST, RPC_RESPONSE = 4, 300, 5000
#: Simulated time bound; a healthy run needs a few milliseconds at most.
MAX_TIME_S = 1.0
#: Where :func:`settle` stops waiting for a quiet wire (absolute).
SETTLE_S = 0.01

US = 1_000_000  # ps
#: A hold-back that outlives a clean bulk connection (about 45 us), so
#: the copy lands once both ends have closed.
LATE_PS = 2_000 * US


def _data_burst(direction, first, count, action="drop", delay_ps=0):
    return [
        Fault(direction, "data", nth, action, delay_ps)
        for nth in range(first, first + count)
    ]


#: name -> (shape, faults).  Bulk a -> b indices: data 0-44, a's FIN,
#: b's acks 0-44 for the data and 45 for a's FIN, a's ack 0 for the
#: SYN-ACK and 1 for b's FIN.  RPC: 4 x 300 B requests (a -> b data
#: 0-3), 4 x 5000 B responses (b -> a data 0-15, four per round).
SCHEDULES: Dict[str, Tuple[str, List[Fault]]] = {
    "bulk-clean": ("bulk", []),
    "bulk-syn-lost": ("bulk", [Fault("a2b", "syn", 0)]),
    "bulk-synack-lost": ("bulk", [Fault("b2a", "synack", 0)]),
    "bulk-handshake-ack-lost": ("bulk", [Fault("a2b", "ack", 0)]),
    "bulk-first-data-lost": ("bulk", [Fault("a2b", "data", 0)]),
    "bulk-mid-data-lost": ("bulk", [Fault("a2b", "data", 20)]),
    "bulk-tail-data-lost": ("bulk", [Fault("a2b", "data", 44)]),
    "bulk-data-lost-fin-acked-before-resend": (
        "bulk", [Fault("a2b", "data", 43)],
    ),
    "bulk-five-data-lost": ("bulk", _data_burst("a2b", 10, 5)),
    "bulk-data-and-first-resend-lost": (
        "bulk", [Fault("a2b", "data", 20), Fault("a2b", "data", 45)],
    ),
    "bulk-ack-burst-lost": (
        "bulk", [Fault("b2a", "ack", nth) for nth in range(5, 10)],
    ),
    "bulk-window-of-acks-lost": (
        "bulk", [Fault("b2a", "ack", nth) for nth in range(0, 14)],
    ),
    "bulk-fin-lost": ("bulk", [Fault("a2b", "fin", 0)]),
    "bulk-ack-of-fin-lost": ("bulk", [Fault("b2a", "ack", 45)]),
    "bulk-peer-fin-lost": ("bulk", [Fault("b2a", "fin", 0)]),
    "bulk-last-ack-lost": ("bulk", [Fault("a2b", "ack", 1)]),
    "bulk-data-reordered": (
        "bulk", [Fault("a2b", "data", 2, "delay", 20 * US)],
    ),
    "bulk-data-reordered-short": (
        "bulk", [Fault("a2b", "data", 5, "delay", 5 * US)],
    ),
    "bulk-ack-reordered": (
        "bulk", [Fault("b2a", "ack", 3, "delay", 10 * US)],
    ),
    "bulk-one-ce": ("bulk", [Fault("a2b", "data", 0, "ce")]),
    "bulk-ce-every-third": (
        "bulk",
        [Fault("a2b", "data", nth, "ce") for nth in range(0, 45, 3)],
    ),
    "bulk-ce-then-loss": (
        "bulk", [Fault("a2b", "data", 10, "ce"), Fault("a2b", "data", 11)],
    ),
    "rpc-clean": ("rpc", []),
    "rpc-request-lost": ("rpc", [Fault("a2b", "data", 0)]),
    "rpc-response-segment-lost": ("rpc", [Fault("b2a", "data", 1)]),
    "rpc-last-response-segment-lost": ("rpc", [Fault("b2a", "data", 15)]),
    "rpc-response-ce": ("rpc", _data_burst("b2a", 4, 4, "ce")),
    "rpc-request-reordered": (
        "rpc", [Fault("a2b", "data", 1, "delay", 30 * US)],
    ),
    "rpc-both-fins-lost": (
        "rpc", [Fault("a2b", "fin", 0), Fault("b2a", "fin", 0)],
    ),
    "rpc-request-ack-lost": ("rpc", [Fault("b2a", "ack", 1)]),
    # Duplicates: a second copy right behind the first, or one that
    # lands after both ends have closed.
    "bulk-syn-duplicated": ("bulk", [Fault("a2b", "syn", 0, "dup")]),
    "bulk-synack-duplicated": ("bulk", [Fault("b2a", "synack", 0, "dup")]),
    "bulk-data-duplicated": ("bulk", [Fault("a2b", "data", 20, "dup")]),
    "bulk-fin-duplicated": ("bulk", [Fault("a2b", "fin", 0, "dup")]),
    "bulk-fin-copy-after-close": (
        "bulk", [Fault("a2b", "fin", 0, "dup", LATE_PS)],
    ),
    "bulk-syn-copy-after-close": (
        "bulk", [Fault("a2b", "syn", 0, "dup", LATE_PS)],
    ),
    "bulk-synack-copy-after-close": (
        "bulk", [Fault("b2a", "synack", 0, "dup", LATE_PS)],
    ),
}

#: name -> (a, b) x (retransmits, timeouts, ecn_echoes, packets_sent),
#: captured on the stack before its per-flow record was split into a
#: connection and a transfer part.  Before that, four schedules never
#: closed: ``bulk-data-lost-fin-acked-before-resend`` and
#: ``bulk-data-and-first-resend-lost`` (a go-back-N resend cleared
#: ``fin_sent`` and the FIN's ACK then read as a data ACK), and
#: ``bulk-ack-of-fin-lost`` and ``bulk-last-ack-lost`` (the retransmitted
#: FIN met a flow already torn down and went unanswered).  The other 26
#: rows are what the stack counted before either fix.
EXPECTED: Dict[str, Tuple[int, ...]] = {
    "bulk-clean": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-syn-lost": (0, 0, 0, 50, 0, 0, 0, 48),
    "bulk-synack-lost": (0, 0, 0, 50, 0, 0, 0, 49),
    "bulk-handshake-ack-lost": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-first-data-lost": (1, 0, 0, 83, 0, 0, 0, 81),
    "bulk-mid-data-lost": (1, 0, 0, 50, 0, 0, 0, 48),
    "bulk-tail-data-lost": (1, 1, 0, 51, 0, 0, 0, 49),
    "bulk-data-lost-fin-acked-before-resend": (1, 1, 0, 50, 0, 0, 0, 48),
    "bulk-five-data-lost": (3, 1, 0, 66, 0, 0, 0, 60),
    "bulk-data-and-first-resend-lost": (2, 1, 0, 51, 0, 0, 0, 48),
    "bulk-ack-burst-lost": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-window-of-acks-lost": (5, 5, 0, 80, 0, 0, 0, 79),
    "bulk-fin-lost": (1, 1, 0, 50, 0, 0, 0, 48),
    "bulk-ack-of-fin-lost": (1, 1, 0, 50, 0, 0, 0, 49),
    "bulk-peer-fin-lost": (0, 0, 0, 49, 1, 1, 0, 49),
    "bulk-last-ack-lost": (0, 0, 0, 50, 1, 1, 0, 49),
    "bulk-data-reordered": (1, 0, 0, 79, 0, 0, 0, 78),
    "bulk-data-reordered-short": (1, 0, 0, 78, 0, 0, 0, 77),
    "bulk-ack-reordered": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-one-ce": (0, 0, 1, 89, 0, 0, 0, 88),
    "bulk-ce-every-third": (0, 0, 2, 82, 0, 0, 0, 81),
    "bulk-ce-then-loss": (1, 0, 1, 54, 0, 0, 0, 52),
    "rpc-clean": (0, 0, 0, 24, 0, 0, 0, 23),
    "rpc-request-lost": (1, 1, 0, 25, 0, 0, 0, 23),
    "rpc-response-segment-lost": (0, 0, 0, 24, 1, 1, 0, 24),
    "rpc-last-response-segment-lost": (0, 0, 0, 24, 1, 1, 0, 24),
    "rpc-response-ce": (0, 0, 0, 24, 0, 0, 1, 23),
    "rpc-request-reordered": (0, 0, 0, 24, 0, 0, 0, 23),
    "rpc-both-fins-lost": (1, 1, 0, 25, 1, 1, 0, 24),
    "rpc-request-ack-lost": (0, 0, 0, 24, 0, 0, 0, 23),
    # Captured before the two ends of a connection shared one key.
    "bulk-syn-duplicated": (0, 0, 0, 49, 0, 0, 0, 49),
    "bulk-synack-duplicated": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-data-duplicated": (0, 0, 0, 49, 0, 0, 0, 49),
    "bulk-fin-duplicated": (0, 0, 0, 49, 0, 0, 0, 49),
    "bulk-fin-copy-after-close": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-syn-copy-after-close": (0, 0, 0, 49, 0, 0, 0, 48),
    "bulk-synack-copy-after-close": (0, 0, 0, 49, 0, 0, 0, 48),
}

#: name -> (a, b) packets sent once the wire has settled, for the
#: copies that land after both ends closed.  Before ``rst``, a late
#: SYN copy opened a half-open flow at b that re-sent its SYN-ACK every
#: handshake timeout, for good.
AFTER_CLOSE: Dict[str, Tuple[int, int]] = {
    # b re-ACKs the FIN from the segment alone; a ignores that ACK.
    "bulk-fin-copy-after-close": (49, 49),
    # b answers the SYN; a resets the SYN-ACK; b drops its half-open flow.
    "bulk-syn-copy-after-close": (50, 49),
    # a resets the SYN-ACK; b, holding nothing, never answers an RST.
    "bulk-synack-copy-after-close": (50, 48),
}


@dataclass
class Outcome:
    finished: bool = False
    got_a: int = 0
    got_b: int = 0
    closed: Dict[str, bool] = field(
        default_factory=lambda: {"a": False, "b": False}
    )
    #: How many scheduled faults met their segment.
    fired: int = 0
    counters: Tuple[int, ...] = ()


def wanted(shape: str) -> Tuple[int, int]:
    """(bytes a receives, bytes b receives) over a connection of ``shape``."""
    if shape == "bulk":
        return 0, BULK_BYTES
    if shape == "idle":
        return 0, 0
    return RPC_ROUNDS * RPC_RESPONSE, RPC_ROUNDS * RPC_REQUEST


def drive(
    tb, shape: str, max_time_s: float = MAX_TIME_S, hold_ps: int = 0,
) -> Outcome:
    """One whole connection of ``shape`` between ``tb``'s two ends: a
    connects, the transfer runs, a closes once it is done and b closes
    on EOF.  With ``hold_ps``, a neither sends nor closes before that
    instant: the connection is held open, idle, until then.  ``tb`` is
    any rig with the ``Testbed`` shape."""
    a, b = tb.engine_a, tb.engine_b
    b.listen(80)
    a_flow = a.connect(b.ip, 80)
    out = Outcome()
    want_a, want_b = wanted(shape)
    sent = {"a": 0, "b": 0}
    eof = {"a": False, "b": False}
    closing = {"a": False, "b": False}
    b_flow = None

    def top_up(name: str, stack, flow: int, target: int) -> None:
        if sent[name] < target:
            sent[name] += stack.send_data(flow, bytes(target - sent[name]))

    def pump() -> bool:
        nonlocal b_flow
        for name, stack in (("a", a), ("b", b)):
            for message in stack.drain_host_messages():
                if message.kind == "eof":
                    eof[name] = True
                elif message.kind == "closed":
                    out.closed[name] = True
        if b_flow is None:
            b_flow = b.accept(80)
        if tb.time_ps < hold_ps:
            pass  # held open: a waits
        elif shape == "bulk":
            top_up("a", a, a_flow, BULK_BYTES)
        elif shape == "rpc":
            # Request k goes out once response k - 1 is in.
            rounds = min(RPC_ROUNDS, out.got_a // RPC_RESPONSE + 1)
            top_up("a", a, a_flow, rounds * RPC_REQUEST)
        out.got_a += len(a.recv_data(a_flow, a.readable(a_flow)))
        if b_flow is not None:
            out.got_b += len(b.recv_data(b_flow, b.readable(b_flow)))
            if shape == "rpc":
                top_up("b", b, b_flow, out.got_b // RPC_REQUEST * RPC_RESPONSE)
        if (
            tb.time_ps >= hold_ps and not closing["a"]
            and sent["a"] == want_b and out.got_a == want_a
        ):
            closing["a"] = True
            a.close_flow(a_flow)
        if (
            b_flow is not None and not closing["b"] and eof["b"]
            and sent["b"] == want_a
        ):
            closing["b"] = True
            b.close_flow(b_flow)
        return out.closed["a"] and out.closed["b"]

    if hold_ps:
        out.finished = tb.run(
            until=pump, max_time_s=max_time_s,
            next_call_ps=lambda: hold_ps if tb.time_ps < hold_ps else NEVER,
        )
    else:
        out.finished = tb.run(until=pump, max_time_s=max_time_s)
    return out


def replay(
    tb, schedule: FaultSchedule, shape: str, hold_ps: int = 0,
) -> Outcome:
    """:func:`drive` on ``tb``, whose ports apply ``schedule``."""
    out = drive(tb, shape, hold_ps=hold_ps)
    out.fired = len(schedule.fired)
    out.counters = tuple(
        getattr(stack, name)
        for stack in (tb.engine_a, tb.engine_b)
        for name in ("retransmits", "timeouts", "ecn_echoes", "packets_sent")
    )
    return out


def run_schedule(shape: str, faults: List[Fault]) -> Tuple[Outcome, SoftTestbed]:
    """:func:`drive` over ``faults`` on two soft stacks."""
    schedule = FaultSchedule(faults)
    tb = SoftTestbed(lambda: FlexToeService(), schedule=schedule)
    return replay(tb, schedule, shape), tb


def settle(tb: SoftTestbed) -> None:
    """Run on past the close, with no pump, until nothing is in flight
    and no timer is armed: every late segment lands and is answered."""
    tb.run(until=lambda: False, max_time_s=SETTLE_S)
    assert not tb.in_flight(), "still segments in flight"
    assert tb.timers.next_deadline_ps(None) is None, "a timer armed"


def check_outcome(shape: str, out: Outcome, tb: SoftTestbed) -> None:
    """Bytes exact, both ends CLOSED, no flow left on either stack —
    at the instant both close and again once the wire has settled."""
    assert (out.got_a, out.got_b) == wanted(shape)
    assert out.finished and out.closed == {"a": True, "b": True}
    for stack in (tb.engine_a, tb.engine_b):
        assert not stack.flows and not stack._by_key
    settle(tb)
    for stack in (tb.engine_a, tb.engine_b):
        assert not stack.flows and not stack._by_key


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_fixed_schedule(name):
    shape, faults = SCHEDULES[name]
    out, tb = run_schedule(shape, faults)
    check_outcome(shape, out, tb)
    assert out.fired == len(faults), "a fault no segment reached"
    assert out.counters == EXPECTED[name]
    if name in AFTER_CLOSE:
        sent = (tb.engine_a.packets_sent, tb.engine_b.packets_sent)
        assert sent == AFTER_CLOSE[name]


_FAULT = st.builds(
    lambda direction, kind, nth, action, delay_us: Fault(
        direction, kind, nth,
        action if action != "ce" or kind == "data" else "drop",
        delay_us * US if action in ("delay", "dup") else 0,
    ),
    st.sampled_from(["a2b", "b2a"]),
    st.sampled_from(["syn", "synack", "data", "ack", "fin", "rst"]),
    st.integers(0, 60),
    st.sampled_from(["drop", "delay", "dup", "ce"]),
    st.integers(1, 60),
)


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(["bulk", "rpc"]), faults=st.lists(_FAULT, max_size=6))
def test_any_schedule_delivers_and_closes(shape, faults):
    out, tb = run_schedule(shape, faults)
    check_outcome(shape, out, tb)


# ------------------------------------------------- across the switch
#: The schedules that only drop or hold back segments (the switch rig
#: has no duplicating or CE-marking port).
SWITCHED = sorted(
    name for name, (_shape, faults) in SCHEDULES.items()
    if all(fault.action in ("drop", "delay") for fault in faults)
)

#: name -> (a, b) x (retransmits, timeouts, ecn_echoes, packets_sent),
#: then the close instant (ps), on two hosts of a ``SwitchFabric`` with
#: the faults applied where each host sends.  A held-back segment holds
#: back its whole uplink there, so the reordering schedules recover
#: differently than on the point-to-point wire.  Captured while the
#: event loop still landed on every switch event.
SWITCH_EXPECTED: Dict[str, Tuple[int, ...]] = {
    "bulk-ack-burst-lost": (0, 0, 0, 49, 0, 0, 0, 48, 62297960),
    "bulk-ack-of-fin-lost": (1, 1, 0, 50, 0, 0, 0, 49, 117550040),
    "bulk-ack-reordered": (0, 0, 0, 49, 0, 0, 0, 48, 69960200),
    "bulk-clean": (0, 0, 0, 49, 0, 0, 0, 48, 61067560),
    "bulk-data-and-first-resend-lost": (2, 1, 0, 51, 0, 0, 0, 48, 110450480),
    "bulk-data-lost-fin-acked-before-resend": (
        1, 1, 0, 50, 0, 0, 0, 48, 124078160,
    ),
    "bulk-data-reordered": (0, 0, 0, 49, 0, 0, 0, 48, 80113240),
    "bulk-data-reordered-short": (0, 0, 0, 49, 0, 0, 0, 48, 61067560),
    "bulk-fin-lost": (1, 1, 0, 50, 0, 0, 0, 48, 124077520),
    "bulk-first-data-lost": (1, 0, 0, 83, 0, 0, 0, 81, 113309680),
    "bulk-five-data-lost": (3, 1, 0, 66, 0, 0, 0, 60, 202320320),
    "bulk-handshake-ack-lost": (0, 0, 0, 49, 0, 0, 0, 48, 61067560),
    "bulk-last-ack-lost": (0, 0, 0, 50, 1, 1, 0, 49, 113567560),
    "bulk-mid-data-lost": (1, 0, 0, 50, 0, 0, 0, 48, 61181840),
    "bulk-peer-fin-lost": (0, 0, 0, 49, 1, 1, 0, 49, 113567560),
    "bulk-syn-lost": (0, 0, 0, 50, 0, 0, 0, 48, 113567560),
    "bulk-synack-lost": (0, 0, 0, 50, 0, 0, 0, 49, 113567560),
    "bulk-tail-data-lost": (1, 1, 0, 51, 0, 0, 0, 49, 124174960),
    "bulk-window-of-acks-lost": (5, 5, 0, 80, 0, 0, 0, 79, 1678817120),
    "rpc-both-fins-lost": (1, 1, 0, 25, 1, 1, 0, 24, 210733000),
    "rpc-clean": (0, 0, 0, 24, 0, 0, 0, 23, 105733000),
    "rpc-last-response-segment-lost": (0, 0, 0, 24, 1, 1, 0, 24, 168801320),
    "rpc-request-ack-lost": (0, 0, 0, 24, 0, 0, 0, 23, 105733000),
    "rpc-request-lost": (1, 1, 0, 25, 0, 0, 0, 23, 158233000),
    "rpc-request-reordered": (0, 0, 0, 24, 0, 0, 0, 23, 135733000),
    "rpc-response-segment-lost": (0, 0, 0, 24, 1, 1, 0, 24, 182250120),
}


@pytest.mark.parametrize("name", SWITCHED)
def test_fixed_schedule_across_the_switch(name, monkeypatch):
    """The drop and delay schedules through the switch: RTOs fire
    between switch events, and the switch, run ahead between landings,
    has never run an event past the instant the loop lands at next.
    The counters and the close instant are pinned."""
    hold_the_switch_to_its_landings(monkeypatch)
    shape, faults = SCHEDULES[name]
    schedule = FaultSchedule(faults)
    tb = SwitchTestbed(lambda: FlexToeService(), schedule=schedule)
    out = replay(tb, schedule, shape)
    close_ps = tb.time_ps
    check_outcome(shape, out, tb)
    assert out.fired == len(faults), "a fault no segment reached"
    assert out.counters + (close_ps,) == SWITCH_EXPECTED[name]


# ------------------------------------------------------ held open
#: How long a held-open connection sits idle before a acts: past the
#: handshake timeout, so every handshake timer entry has left the heap.
HOLD_PS = 2 * HANDSHAKE_RTO_PS
#: A copy that lands while both ends are still idle.
COPY_PS = 75 * US

#: name -> (shape, faults) of a connection held open for ``HOLD_PS``,
#: then (a) sent on, (b) closed, (c) hit by a duplicated handshake
#: segment delayed into the idle stretch and then closed, or (d) closed
#: with its FIN held back past the retransmit timeout.  ``idle`` moves
#: no byte either way.
HELD: Dict[str, Tuple[str, List[Fault]]] = {
    "held-send": ("bulk", []),
    "held-rpc": ("rpc", []),
    "held-close": ("idle", []),
    "held-syn-copy": ("idle", [Fault("a2b", "syn", 0, "dup", COPY_PS)]),
    "held-synack-copy": ("idle", [Fault("b2a", "synack", 0, "dup", COPY_PS)]),
    "held-handshake-ack-copy": (
        "idle", [Fault("a2b", "ack", 0, "dup", COPY_PS)],
    ),
    "held-fin-late": ("idle", [Fault("a2b", "fin", 0, "delay", LATE_PS)]),
}

#: name -> (a, b) x (retransmits, timeouts, ecn_echoes, packets_sent),
#: the close instant (ps), then (a, b) packets sent once the wire has
#: settled; captured before an idle end could park.
HELD_EXPECTED: Dict[str, Tuple[int, ...]] = {
    "held-close": (0, 0, 0, 4, 0, 0, 0, 3, 113533720, 4, 3),
    "held-fin-late": (1, 1, 0, 5, 0, 0, 0, 3, 166033720, 5, 4),
    "held-handshake-ack-copy": (0, 0, 0, 4, 0, 0, 0, 3, 113533720, 4, 3),
    "held-rpc": (0, 0, 0, 24, 0, 0, 0, 23, 164042480, 24, 23),
    "held-send": (0, 0, 0, 49, 0, 0, 0, 48, 133633520, 49, 48),
    "held-syn-copy": (0, 0, 0, 4, 0, 0, 0, 4, 113533720, 4, 4),
    "held-synack-copy": (0, 0, 0, 4, 0, 0, 0, 3, 113533720, 4, 3),
}


def record_parks(monkeypatch) -> List[Tuple[str, int]]:
    """(stack name, instant) of every end that parks, in order."""
    parks: List[Tuple[str, int]] = []
    park = SoftStack._park

    def recorded(stack: SoftStack, flow) -> None:
        park(stack, flow)
        if type(stack.flows[flow.flow_id]) is FlowKey:
            parks.append((stack.name, stack.now_ps))

    monkeypatch.setattr(SoftStack, "_park", recorded)
    return parks


@pytest.mark.parametrize("name", sorted(HELD))
def test_held_open_schedule(name, monkeypatch):
    """Both ends park while the connection is held open, then whatever
    comes — a send, a close, a stray handshake copy, a late FIN —
    unparks them, and the counters are the ones captured before an end
    could park."""
    parks = record_parks(monkeypatch)
    shape, faults = HELD[name]
    schedule = FaultSchedule(faults)
    tb = SoftTestbed(lambda: FlexToeService(), schedule=schedule)
    out = replay(tb, schedule, shape, hold_ps=HOLD_PS)
    close_ps = tb.time_ps
    assert close_ps > HOLD_PS
    assert sorted({who for who, _at in parks}) == ["a", "b"]
    assert all(at < COPY_PS for _who, at in parks)
    check_outcome(shape, out, tb)
    assert out.fired == len(faults), "a fault no segment reached"
    settled = (tb.engine_a.packets_sent, tb.engine_b.packets_sent)
    assert out.counters + (close_ps,) + settled == HELD_EXPECTED[name]
