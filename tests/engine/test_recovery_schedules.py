"""The fixed fault schedules of the soft-stack recovery tests, replayed
on the engine pair.

``tests/fabric/test_recovery_schedules.py`` drops, delays, duplicates
or CE-marks the nth segment of a kind in one direction of one whole
connection.  This runner puts the drop and delay schedules on a
:class:`~repro.engine.testbed.Testbed`: the schedule's hooks sit on the
engine :class:`~repro.net.wire.Wire`, and a segment's kind is read off
its TCP flags.  Duplication and CE marks have no engine wire and stay
soft-only.

On every schedule the bytes arrive exactly and in order, and
:class:`~repro.engine.verification.InvariantMonitor` stays clean on
both engines at every pump call.  Both ends close — a FIN an RTO
rolled back is sent again — and neither keeps anything of the flow: no
``flows`` entry, no RX flow-table entry, no CAM slot; the wire goes
quiet with no timer armed.  Each schedule's per-end counters are pinned
below.
"""

from typing import Dict, Tuple

import pytest

from repro.engine.packet_gen import _NO_OPTIONS
from repro.engine.testbed import Testbed
from repro.engine.verification import InvariantMonitor
from repro.net.wire import Wire
from repro.sim.component import NEVER
from repro.tcp.options import TcpOptions
from repro.tcp.segment import TcpSegment

from ..fabric._soft_testbed import FaultSchedule
from ..fabric.test_recovery_schedules import SCHEDULES, drive, wanted

#: The engines' initial RTO is 1 s (RFC 6298): a lost SYN costs
#: seconds, which the testbed's horizon loop skips for free.
MAX_TIME_S = 10.0
#: Past the close, how long the wire gets to go quiet.
SETTLE_S = 1.0

#: The schedules the engine wire can replay.
ENGINE_SCHEDULES = sorted(
    name for name, (_, faults) in SCHEDULES.items()
    if all(fault.action in ("drop", "delay") for fault in faults)
)

#: name -> (a, b) x (retransmissions, timeouts_fired, packets_sent),
#: then how many faults met their segment and (a, b) flows left at the
#: end of the run.  The engine numbers its segments its own way (it
#: ACKs a burst once, not per segment), so an index may name a segment
#: the soft stack sends and the engine does not.
EXPECTED: Dict[str, Tuple[int, ...]] = {
    "bulk-ack-burst-lost": (0, 1, 48, 0, 1, 48, 5, 0, 0),
    "bulk-ack-of-fin-lost": (0, 1, 48, 0, 1, 48, 1, 0, 0),
    "bulk-ack-reordered": (0, 1, 48, 0, 1, 48, 1, 0, 0),
    "bulk-clean": (0, 1, 48, 0, 1, 48, 0, 0, 0),
    "bulk-data-and-first-resend-lost": (3, 2, 51, 0, 0, 48, 2, 0, 0),
    "bulk-data-lost-fin-acked-before-resend": (2, 2, 50, 0, 0, 48, 1, 0, 0),
    "bulk-data-reordered": (1, 1, 49, 0, 1, 49, 1, 0, 0),
    "bulk-data-reordered-short": (1, 1, 50, 0, 1, 50, 1, 0, 0),
    "bulk-fin-lost": (1, 2, 49, 0, 0, 48, 1, 0, 0),
    "bulk-first-data-lost": (1, 1, 49, 0, 1, 48, 1, 0, 0),
    "bulk-five-data-lost": (5, 1, 53, 0, 1, 48, 5, 0, 0),
    "bulk-handshake-ack-lost": (0, 1, 49, 1, 2, 49, 1, 0, 0),
    "bulk-last-ack-lost": (0, 1, 48, 0, 1, 48, 0, 0, 0),
    "bulk-mid-data-lost": (1, 1, 49, 0, 0, 47, 1, 0, 0),
    "bulk-peer-fin-lost": (0, 1, 48, 1, 2, 49, 1, 0, 0),
    "bulk-syn-lost": (1, 2, 49, 0, 1, 48, 1, 0, 0),
    "bulk-synack-lost": (1, 2, 50, 2, 2, 50, 1, 0, 0),
    "bulk-tail-data-lost": (2, 2, 50, 0, 0, 47, 1, 0, 0),
    "bulk-window-of-acks-lost": (5, 6, 53, 0, 1, 53, 14, 0, 0),
    "rpc-both-fins-lost": (1, 2, 24, 1, 1, 24, 2, 0, 0),
    "rpc-clean": (0, 1, 23, 0, 0, 23, 0, 0, 0),
    "rpc-last-response-segment-lost": (0, 1, 23, 1, 1, 24, 1, 0, 0),
    "rpc-request-ack-lost": (0, 1, 23, 0, 0, 23, 1, 0, 0),
    "rpc-request-lost": (1, 2, 24, 0, 0, 23, 1, 0, 0),
    "rpc-request-reordered": (0, 1, 23, 0, 0, 23, 1, 0, 0),
    "rpc-response-segment-lost": (0, 1, 23, 1, 1, 24, 1, 0, 0),
}

class _Kinded:
    """What a schedule's drop hook reads off a segment: its kind."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind


def kind_of(segment: TcpSegment) -> str:
    """The soft stack's segment kind for an engine segment's flags."""
    if segment.rst:
        return "rst"
    if segment.syn:
        return "synack" if segment.has_ack else "syn"
    if segment.fin:
        return "fin"
    return "data" if segment.payload else "ack"


def engine_hooks(schedule: FaultSchedule, direction: str):
    """``schedule``'s hooks for one direction of the engine wire: a
    TCP segment is matched by its kind, an ARP frame passes untouched
    and uncounted."""
    drop, delay = schedule.hooks(direction)

    def drop_fn(frame, index: int) -> bool:
        segment = frame.payload
        if not isinstance(segment, TcpSegment):
            return False
        return drop(_Kinded(kind_of(segment)), index)

    return drop_fn, delay


class _AuditedTestbed(Testbed):
    """A testbed whose every ``until`` call first audits both engines."""

    __test__ = False

    def __init__(self, wire: Wire) -> None:
        super().__init__(wire=wire)
        self.monitors = [
            InvariantMonitor(self.engine_a), InvariantMonitor(self.engine_b)
        ]

    def run(self, until=None, **kwargs) -> bool:
        if until is None:
            return super().run(**kwargs)

        def audited() -> bool:
            for monitor in self.monitors:
                monitor.check()
            return until()

        return super().run(until=audited, **kwargs)


def run_on_engines(name: str):
    shape, faults = SCHEDULES[name]
    schedule = FaultSchedule(faults)
    drop_ab, delay_ab = engine_hooks(schedule, "a2b")
    drop_ba, delay_ba = engine_hooks(schedule, "b2a")
    tb = _AuditedTestbed(Wire(
        drop_a_to_b=drop_ab, drop_b_to_a=drop_ba,
        delay_a_to_b=delay_ab, delay_b_to_a=delay_ba,
    ))
    out = drive(tb, shape, max_time_s=MAX_TIME_S)
    engines = (tb.engine_a, tb.engine_b)
    row = tuple(
        engine.counters[counter]
        for engine in engines
        for counter in ("retransmissions", "timeouts_fired", "packets_sent")
    ) + (len(schedule.fired),) + tuple(len(engine.flows) for engine in engines)
    return shape, out, tb, row


def holds_nothing(engine) -> bool:
    return (
        not engine.flows
        and not engine.rx_parser.rx_states
        and len(engine.rx_parser.flow_table) == 0
        and all(fpc.flow_count == 0 for fpc in engine.fpcs)
        and engine.memory_manager.flow_count == 0
    )


def test_every_drop_and_delay_schedule_is_pinned():
    assert sorted(EXPECTED) == ENGINE_SCHEDULES


@pytest.mark.parametrize("name", ENGINE_SCHEDULES)
def test_schedule_on_engines(name):
    shape, out, tb, row = run_on_engines(name)
    assert (out.got_a, out.got_b) == wanted(shape)
    for monitor in tb.monitors:
        assert monitor.checks_run > 0
        monitor.assert_clean()
    assert row == EXPECTED[name]
    # Reordering and loss put SACK blocks on the wire; they never land
    # in the options record the packet generator shares.
    assert _NO_OPTIONS == TcpOptions()
    assert out.finished and out.closed == {"a": True, "b": True}
    assert holds_nothing(tb.engine_a) and holds_nothing(tb.engine_b)
    # Run on with no pump until nothing is scheduled — no frame in
    # flight, no timer armed — and nothing came back.
    assert tb.run(max_time_s=tb.now_s + SETTLE_S)
    assert tb.wire.in_flight == 0
    for engine in (tb.engine_a, tb.engine_b):
        assert engine.next_action == NEVER
        assert holds_nothing(engine)
