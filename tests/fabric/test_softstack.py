"""The soft TCP endpoint: handshake, data, loss recovery, teardown."""

import pytest

from repro.fabric.backend import build_point_to_point
from repro.fabric.softstack import _NO_RUNS, SoftStackConfig, SoftTestbed
from repro.fabric.service import FlexToeService
from repro.tcp.segment import FlowKey
from repro.tcp.state_machine import TcpState


def flextoe_testbed(**kwargs) -> SoftTestbed:
    return SoftTestbed(lambda: FlexToeService(), **kwargs)


def establish(tb: SoftTestbed):
    tb.engine_b.listen(80)
    a_flow = tb.engine_a.connect(tb.engine_b.ip, 80)
    b_box = {}

    def accepted() -> bool:
        if b_box.get("flow") is None:
            b_box["flow"] = tb.engine_b.accept(80)
        return (
            b_box.get("flow") is not None
            and tb.engine_a.flow_state(a_flow) == TcpState.ESTABLISHED
        )

    assert tb.run(until=accepted, max_time_s=0.1)
    return a_flow, b_box["flow"]


class TestHandshakeAndData:
    def test_connect_accept_established(self):
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        assert tb.engine_a.flow_state(a_flow) == TcpState.ESTABLISHED
        assert tb.engine_b.flow_state(b_flow) == TcpState.ESTABLISHED

    def test_bulk_byte_counts_arrive_exactly(self):
        """SoftStack is byte-count functional: sequencing, windows and
        delivery sizes are exact, payload contents are zeroed (only the
        F4T engine carries real bytes)."""
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        total = 16 * 1024
        sent = {"n": 0}
        got = {"n": 0}

        def pump() -> bool:
            if sent["n"] < total:
                sent["n"] += tb.engine_a.send_data(a_flow, bytes(total - sent["n"]))
            readable = tb.engine_b.readable(b_flow)
            if readable:
                got["n"] += len(tb.engine_b.recv_data(b_flow, readable))
            return got["n"] >= total

        assert tb.run(until=pump, max_time_s=0.1)
        assert got["n"] == total
        assert tb.engine_b.readable(b_flow) == 0  # nothing phantom left

    def test_send_respects_buffer_backpressure(self):
        tb = flextoe_testbed(config=SoftStackConfig(send_buffer=4096))
        a_flow, _ = establish(tb)
        accepted = tb.engine_a.send_data(a_flow, bytes(1 << 16))
        assert 0 < accepted <= 4096


class TestLossRecovery:
    def test_drops_are_retransmitted(self):
        tb = flextoe_testbed(drop_probability=0.02, seed=7)
        a_flow, b_flow = establish(tb)
        payload = bytes(64 * 1024)
        sent = {"n": 0}
        got = {"n": 0}

        def pump() -> bool:
            if sent["n"] < len(payload):
                sent["n"] += tb.engine_a.send_data(a_flow, payload[sent["n"]:])
            readable = tb.engine_b.readable(b_flow)
            if readable:
                got["n"] += len(tb.engine_b.recv_data(b_flow, readable))
            return got["n"] >= len(payload)

        assert tb.run(until=pump, max_time_s=0.5)
        assert tb.wire.frames_dropped > 0
        assert tb.engine_a.retransmits > 0

    def test_lossless_run_never_retransmits(self):
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        payload = bytes(128 * 1024)
        sent = {"n": 0}
        got = {"n": 0}

        def pump() -> bool:
            if sent["n"] < len(payload):
                sent["n"] += tb.engine_a.send_data(a_flow, payload[sent["n"]:])
            readable = tb.engine_b.readable(b_flow)
            if readable:
                got["n"] += len(tb.engine_b.recv_data(b_flow, readable))
            return got["n"] >= len(payload)

        assert tb.run(until=pump, max_time_s=0.5)
        assert tb.engine_a.retransmits == 0
        assert tb.engine_a.timeouts == 0


class TestLazyReassemblyState:
    """``_SoftFlow.ooo`` is the shared empty tuple until a segment
    arrives out of order, and again once the hole has closed."""

    def test_lossy_transfer_is_unchanged_and_never_shares_a_list(self):
        tb = flextoe_testbed(drop_probability=0.03, seed=11)
        a, b = tb.engine_a, tb.engine_b
        b.listen(80)
        flows = [a.connect(b.ip, 80) for _ in range(4)]
        total = 96 * 1024
        sent = {flow: 0 for flow in flows}
        got = {}
        seen = {"holes": 0, "closed": 0}
        holed = set()

        def pump() -> bool:
            while True:
                flow = b.accept(80)
                if flow is None:
                    break
                got[flow] = 0
            for flow in flows:
                if (
                    a.flow_state(flow) == TcpState.ESTABLISHED
                    and sent[flow] < total
                ):
                    sent[flow] += a.send_data(flow, bytes(total - sent[flow]))
            for flow in got:
                readable = b.readable(flow)
                if readable:
                    got[flow] += len(b.recv_data(flow, readable))
            mutable = []
            for stack in (a, b):
                for flow in stack.flows.values():
                    if flow.ooo:
                        assert type(flow.ooo) is list
                        mutable.append(flow.ooo)
                        holed.add((stack.name, flow.flow_id))
                    else:
                        assert flow.ooo is _NO_RUNS
                        if (stack.name, flow.flow_id) in holed:
                            seen["closed"] += 1
            assert len({id(runs) for runs in mutable}) == len(mutable)
            seen["holes"] = max(seen["holes"], len(mutable))
            return len(got) == 4 and all(n >= total for n in got.values())

        assert tb.run(until=pump, max_time_s=2.0)
        # Measured at the parent commit (eager per-flow lists): the
        # reassembly representation is not allowed to move any of it.
        assert sorted(got.values()) == [total] * 4
        assert (a.retransmits, a.timeouts) == (7, 2)
        assert (a.packets_sent, b.packets_sent) == (322, 311)
        assert tb.wire.frames_dropped == 7
        assert tb.time_ps == 147_247_640
        assert seen["holes"] == 4 and seen["closed"] > 0
        assert _NO_RUNS == ()
        for stack in (a, b):
            assert all(f.ooo is _NO_RUNS for f in stack.flows.values())

    def test_out_of_order_insert_copies_the_shared_empty(self):
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        first, second = (
            tb.engine_a.flows[a_flow], tb.engine_b.flows[b_flow]
        )
        tb.engine_b._insert_ooo(second, 3000, 4000)
        assert second.ooo == [(3000, 4000)]
        assert first.ooo is _NO_RUNS and _NO_RUNS == ()
        tb.engine_b._insert_ooo(second, 1000, 2000)
        tb.engine_b._insert_ooo(second, 2000, 3500)
        assert second.ooo == [(1000, 4000)]


class TestSourcePorts:
    """``connect`` allocates inside 1024-65535: on from 49152, wrapping,
    skipping 4-tuples a live flow still holds."""

    def test_connection_16385_wraps_instead_of_leaving_the_port_space(self):
        tb = flextoe_testbed()
        a = tb.engine_a
        flows = [a.connect(tb.engine_b.ip, 80) for _ in range(16_386)]
        ports = [a.flows[flow].key.src_port for flow in flows]
        # The first 16,384 are what they always were (pinned digests).
        assert ports[:16_384] == list(range(49152, 65536))
        assert ports[16_384:] == [1024, 1025]
        assert len(a._by_key) == len(flows)

    def test_wrap_skips_tuples_still_held_and_only_those(self):
        tb = flextoe_testbed()
        a, dst = tb.engine_a, tb.engine_b.ip
        held = a.flows[a.connect(dst, 80)].key
        assert held.src_port == 49152
        a._next_port = 49152  # as after a full lap of the port space
        assert a.flows[a.connect(dst, 80)].key.src_port == 49153
        a._next_port = 49152
        # Another destination is another 4-tuple: 49152 is free there.
        assert a.flows[a.connect(dst, 81)].key.src_port == 49152

    def test_exhausted_tuple_space_is_a_named_error(self):
        tb = flextoe_testbed()
        a, dst = tb.engine_a, tb.engine_b.ip
        for port in range(1024, 65536):
            a._by_key[FlowKey(a.ip, port, dst, 80)] = -1
        with pytest.raises(OSError, match=r"stack a: .*10\.0\.0\.2:80"):
            a.connect(dst, 80)
        assert not a.flows  # nothing half-opened
        del a._by_key[FlowKey(a.ip, 30000, dst, 80)]
        assert a.flows[a.connect(dst, 80)].key.src_port == 30000
        assert a.flows[a.connect(dst, 443)].key.src_port == 30001


class TestTeardown:
    def test_close_posts_eof_and_frees_flows(self):
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        tb.engine_a.close_flow(a_flow)

        def gone() -> bool:
            readable = tb.engine_b.readable(b_flow)
            if readable == 0 and any(
                m.kind == "eof" and m.flow_id == b_flow
                for q in tb.engine_b.host_messages.values()
                for m in q
            ):
                tb.engine_b.close_flow(b_flow)
            return (
                a_flow not in tb.engine_a.flows
                and b_flow not in tb.engine_b.flows
            )

        assert tb.run(until=gone, max_time_s=0.5)

    def test_flow_slots_recycle(self):
        tb = flextoe_testbed()
        for _ in range(3):
            a_flow, b_flow = establish(tb)
            tb.engine_a.close_flow(a_flow)

            def gone() -> bool:
                if any(
                    m.kind == "eof" and m.flow_id == b_flow
                    for q in tb.engine_b.host_messages.values()
                    for m in q
                ):
                    tb.engine_b.close_flow(b_flow)
                return (
                    a_flow not in tb.engine_a.flows
                    and b_flow not in tb.engine_b.flows
                )

            assert tb.run(until=gone, max_time_s=0.5)


class TestIntegerTime:
    def test_all_clocks_are_integer_picoseconds(self):
        tb = flextoe_testbed()
        a_flow, b_flow = establish(tb)
        assert isinstance(tb.time_ps, int)
        assert isinstance(tb.engine_a.now_ps, int)
        for flow in list(tb.engine_a.flows.values()):
            assert isinstance(flow.rto_deadline_ps, int)

    def test_backend_helper_rejects_reorder_for_soft(self):
        with pytest.raises(ValueError):
            build_point_to_point(backend="flextoe", reorder_probability=0.5)
