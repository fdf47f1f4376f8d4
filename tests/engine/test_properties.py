"""Property tests for F4T's central correctness claims (DESIGN.md §5).

The paper's stall-avoidance rests on one invariant: *handling* events by
accumulation and *processing* them later all at once is equivalent to
processing every event immediately (§4.2.1–4.2.2).  These tests state
that as a hypothesis property over random event sequences.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.event_handler import EventEntry, accumulate_event, merge_into_tcb
from repro.engine.events import EventKind, TcpEvent, user_send_event
from repro.engine.fpu import Fpu
from repro.tcp.seq import seq_add
from repro.tcp.state_machine import TcpState

from .._records import make_tcb

MSS = 1460


#: Bytes already on the wire when a comparison window opens; incoming
#: ACKs may only cover this data (events must be *physical*: an ACK for
#: bytes never transmitted cannot occur on a real wire).
PRE_FLIGHT = 64 * MSS


def established_tcb():
    tcb = make_tcb(flow_id=1, state=TcpState.ESTABLISHED, iss=1000, irs=5000)
    tcb.snd_una = 1001
    tcb.snd_nxt = tcb.req = seq_add(1001, PRE_FLIGHT)
    tcb.rcv_nxt = tcb.rcv_user = tcb.last_ack_sent = 5001
    tcb.last_wnd_sent = tcb.rcv_wnd
    tcb.cwnd = 1 << 24  # wide open so only the event stream matters
    tcb.snd_wnd = 1 << 24
    tcb.send_buf = 1 << 24
    return tcb


# Random interleavings of send-request pointer advances and peer ACK
# advances (relative to the running state).
event_script = st.lists(
    st.tuples(st.sampled_from(["send", "ack"]), st.integers(min_value=1, max_value=4000)),
    min_size=1,
    max_size=24,
)


def materialize(script):
    """Turn the relative script into absolute-pointer, *physical* events.

    ACKs advance only within the pre-existing flight: data transmitted
    before the comparison window opened, so the same ACK stream is
    legal for every processing schedule.
    """
    from repro.tcp.seq import seq_lt

    req = seq_add(1001, PRE_FLIGHT)
    acked = 1001
    ack_ceiling = seq_add(1001, PRE_FLIGHT)
    events = []
    for kind, amount in script:
        if kind == "send":
            req = seq_add(req, amount)
            events.append(user_send_event(1, req, 0))
        else:
            new_ack = seq_add(acked, amount)
            if seq_lt(ack_ceiling, new_ack):
                new_ack = ack_ceiling
            acked = new_ack
            events.append(TcpEvent(EventKind.RX_PACKET, 1, ack=acked, wnd=1 << 24))
    return events


def run_immediate(events):
    """Process every event the moment it arrives (the stalling design)."""
    fpu = Fpu("newreno")
    tcb = established_tcb()
    sent = []
    for event in events:
        entry = EventEntry()
        accumulate_event(entry, event)
        dup = merge_into_tcb(tcb, entry)
        result = fpu.process(tcb, dup, now_ps=0)
        sent.extend(
            (d.seq, d.length) for d in result.directives if d.length > 0
        )
    return tcb, sent


def run_accumulated(events):
    """Handle everything first, process once (the F4T design)."""
    fpu = Fpu("newreno")
    tcb = established_tcb()
    entry = EventEntry()
    for event in events:
        accumulate_event(entry, event)
    dup = merge_into_tcb(tcb, entry)
    result = fpu.process(tcb, dup, now_ps=0)
    sent = [(d.seq, d.length) for d in result.directives if d.length > 0]
    return tcb, sent


class TestAccumulationEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(event_script)
    def test_final_pointers_identical(self, script):
        """Invariant 1: same final architectural state either way."""
        events = materialize(script)
        immediate, _ = run_immediate(events)
        accumulated, _ = run_accumulated(events)
        assert accumulated.req == immediate.req
        assert accumulated.snd_nxt == immediate.snd_nxt
        assert accumulated.snd_una == immediate.snd_una

    @settings(max_examples=120, deadline=None)
    @given(event_script)
    def test_same_bytes_covered(self, script):
        """The accumulated design transmits exactly the same byte range
        the immediate design does (possibly in fewer, larger packets —
        that is the single-large-request effect of §4.2.2)."""
        events = materialize(script)
        _, sent_immediate = run_immediate(events)
        _, sent_accumulated = run_accumulated(events)

        def covered(sent):
            total = 0
            for _, length in sent:
                total += length
            return total

        assert covered(sent_accumulated) == covered(sent_immediate)
        # And never more packets than the immediate design.
        assert len(sent_accumulated) <= max(1, len(sent_immediate))

    @settings(max_examples=60, deadline=None)
    @given(event_script, st.integers(min_value=1, max_value=5))
    def test_arbitrary_batching_equivalence(self, script, batch):
        """Any batching granularity in between is also equivalent."""
        events = materialize(script)
        fpu = Fpu("newreno")
        tcb = established_tcb()
        entry = EventEntry()
        for index, event in enumerate(events):
            accumulate_event(entry, event)
            if (index + 1) % batch == 0:
                dup = merge_into_tcb(tcb, entry)
                fpu.process(tcb, dup, now_ps=0)
        dup = merge_into_tcb(tcb, entry)
        fpu.process(tcb, dup, now_ps=0)

        reference, _ = run_immediate(events)
        assert tcb.req == reference.req
        assert tcb.snd_nxt == reference.snd_nxt
        assert tcb.snd_una == reference.snd_una


class TestDupAckEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_counted_dupacks_trigger_like_individual_ones(self, dup_count):
        """Counting N duplicate ACKs then processing once must make the
        same recovery decision as N separate dupACK events."""
        # Accumulated: one pass with dup_count.
        fpu_a = Fpu("newreno")
        tcb_a = established_tcb()
        result_a = fpu_a.process(tcb_a, dup_count, now_ps=0)
        # Immediate: one pass per dupACK.
        fpu_b = Fpu("newreno")
        tcb_b = established_tcb()
        retransmissions = 0
        for _ in range(dup_count):
            result = fpu_b.process(tcb_b, 1, now_ps=0)
            retransmissions += sum(1 for d in result.directives if d.retransmission)
        assert tcb_a.in_recovery == tcb_b.in_recovery
        assert tcb_a.dupacks == tcb_b.dupacks
        fast_rtx_a = sum(1 for d in result_a.directives if d.retransmission)
        assert fast_rtx_a == retransmissions  # at most one fast rtx


class TestEndToEndDeliveryProperty:
    """Invariant 7: exact delivery over a lossy, reordering wire."""

    from hypothesis import HealthCheck

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=60_000),
        loss=st.sampled_from([0.0, 0.01, 0.03]),
    )
    def test_lossy_wire_delivers_exact_stream(self, seed, size, loss):
        import random

        from repro.engine.testbed import Testbed
        from repro.net.wire import LossPattern, Wire

        rng = random.Random(seed)
        wire = Wire(
            drop_a_to_b=LossPattern.probability(loss, seed=seed),
            delay_a_to_b=lambda f, i, _r=rng: 2_000_000 if _r.random() < 0.03 else 0,
        )
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = bytes(rng.randrange(256) for _ in range(min(size, 4096))) * (
            max(1, size // 4096)
        )
        sent = {"n": 0}

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(
                    a_flow, data[sent["n"] : sent["n"] + 16384]
                )
            return testbed.engine_b.readable(b_flow) >= len(data)

        assert testbed.run(until=pump, max_time_s=testbed.now_s + 20.0)
        assert testbed.engine_b.recv_data(b_flow, len(data)) == data
