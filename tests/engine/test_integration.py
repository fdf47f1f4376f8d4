"""End-to-end integration: loss, reordering, migration, wire fidelity."""

import pytest

from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.net.link import Link
from repro.net.wire import LossPattern, Wire
from repro.tcp.segment import TcpSegment


class _OneGigLink(Link):
    bandwidth_gbps = 1.0


def patterned_data(n, salt=0):
    return bytes((i * 131 + salt) % 256 for i in range(n))


def transfer(testbed, a_flow, b_flow, data, max_time_s=5.0):
    """Push ``data`` a->b through the engines; returns what B received."""
    progress = {"sent": 0}

    def pump():
        if progress["sent"] < len(data):
            chunk = data[progress["sent"] : progress["sent"] + 16384]
            progress["sent"] += testbed.engine_a.send_data(a_flow, chunk)
        return testbed.engine_b.readable(b_flow) >= len(data)

    assert testbed.run(until=pump, max_time_s=testbed.now_s + max_time_s), (
        f"stalled: {testbed.engine_b.readable(b_flow)}/{len(data)} delivered"
    )
    return testbed.engine_b.recv_data(b_flow, len(data))


class TestLossRecovery:
    @pytest.mark.parametrize("loss", [0.01, 0.05])
    def test_data_loss_recovered(self, loss):
        wire = Wire(drop_a_to_b=LossPattern.probability(loss, seed=11))
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(150_000)
        assert transfer(testbed, a_flow, b_flow, data) == data
        assert wire.frames_dropped > 0
        assert testbed.engine_a.counters["retransmissions"] > 0

    def test_ack_loss_recovered(self):
        """Dropping ACKs (b->a) stalls the sender until retransmission
        or later cumulative ACKs repair it."""
        wire = Wire(drop_b_to_a=LossPattern.probability(0.05, seed=3))
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(100_000)
        assert transfer(testbed, a_flow, b_flow, data) == data

    def test_bidirectional_loss(self):
        wire = Wire(
            drop_a_to_b=LossPattern.probability(0.03, seed=5),
            drop_b_to_a=LossPattern.probability(0.03, seed=6),
        )
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(80_000)
        assert transfer(testbed, a_flow, b_flow, data, max_time_s=10.0) == data

    def test_burst_loss(self):
        wire = Wire(drop_a_to_b=LossPattern.explicit(list(range(40, 48))))
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(120_000)
        assert transfer(testbed, a_flow, b_flow, data) == data


class TestReordering:
    def test_reordered_delivery(self):
        import random

        rng = random.Random(9)
        wire = Wire(
            delay_a_to_b=lambda frame, index: (
                3_000_000 if rng.random() < 0.05 else 0  # 3 us extra, 5% of frames
            )
        )
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(150_000)
        assert transfer(testbed, a_flow, b_flow, data) == data
        assert testbed.engine_b.rx_parser.out_of_order_packets > 0

    def test_reordering_plus_loss(self):
        import random

        rng = random.Random(10)
        wire = Wire(
            drop_a_to_b=LossPattern.probability(0.02, seed=12),
            delay_a_to_b=lambda f, i: 2_000_000 if rng.random() < 0.04 else 0,
        )
        testbed = Testbed(wire=wire)
        a_flow, b_flow = testbed.establish()
        data = patterned_data(100_000)
        assert transfer(testbed, a_flow, b_flow, data, max_time_s=10.0) == data


class TestManyFlows:
    def test_interleaved_flows_are_isolated(self):
        testbed = Testbed()
        testbed.engine_b.listen(80)
        a_flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(8)]
        b_flows = []

        def accepted():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                b_flows.append(flow)
            return len(b_flows) == 8

        assert testbed.run(until=accepted, max_time_s=0.1)
        payloads = {flow: patterned_data(20_000, salt=i) for i, flow in enumerate(a_flows)}
        for flow, data in payloads.items():
            testbed.engine_a.send_data(flow, data)
        assert testbed.run(
            until=lambda: all(
                testbed.engine_b.readable(flow) >= 20_000 for flow in b_flows
            ),
            max_time_s=1.0,
        )
        # Match each server flow's bytes to exactly one client payload.
        received = [testbed.engine_b.recv_data(flow, 20_000) for flow in b_flows]
        assert sorted(received) == sorted(payloads.values())


    def test_parallel_clients_on_one_listening_port(self):
        """Clients send before the server accepts: each accepted flow
        holds exactly its own client's bytes."""
        testbed = Testbed()
        testbed.engine_b.listen(80)
        clients = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(4)]
        for index, flow in enumerate(clients):
            testbed.engine_a.send_data(flow, f"client-{index}".encode())
        servers = []

        def all_arrived():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                servers.append(flow)
            return len(servers) == 4 and all(
                testbed.engine_b.readable(flow) >= 8 for flow in servers
            )

        assert testbed.run(until=all_arrived, max_time_s=0.1)
        received = sorted(testbed.engine_b.recv_data(flow, 100) for flow in servers)
        assert received == [b"client-0", b"client-1", b"client-2", b"client-3"]


class TestMigrationUnderTraffic:
    def test_more_flows_than_sram_capacity(self):
        """With tiny FPCs (2x2 slots) and 12 flows, most TCBs live in
        DRAM and every transfer exercises the migration protocol."""
        config = FtEngineConfig(num_fpcs=2, fpc_slots=2)
        testbed = Testbed(config_a=config, config_b=FtEngineConfig(num_fpcs=2, fpc_slots=2))
        testbed.engine_b.listen(80)
        a_flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(12)]
        b_flows = []

        def accepted():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                b_flows.append(flow)
            return len(b_flows) == 12

        assert testbed.run(until=accepted, max_time_s=1.0)
        assert testbed.engine_a.memory_manager.flow_count > 0  # DRAM in use

        payloads = {flow: patterned_data(5000, salt=i) for i, flow in enumerate(a_flows)}
        for flow, data in payloads.items():
            testbed.engine_a.send_data(flow, data)
        assert testbed.run(
            until=lambda: all(
                testbed.engine_b.readable(flow) >= 5000 for flow in b_flows
            ),
            max_time_s=2.0,
        )
        received = [testbed.engine_b.recv_data(flow, 5000) for flow in b_flows]
        assert sorted(received) == sorted(payloads.values())
        assert testbed.engine_a.scheduler.evictions > 0
        assert testbed.engine_a.scheduler.swap_ins > 0

    def test_migration_with_loss(self):
        config = FtEngineConfig(num_fpcs=2, fpc_slots=2)
        wire = Wire(drop_a_to_b=LossPattern.probability(0.02, seed=21))
        testbed = Testbed(config_a=config, config_b=config, wire=wire)
        testbed.engine_b.listen(80)
        a_flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(8)]
        b_flows = []

        def accepted():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                b_flows.append(flow)
            return len(b_flows) == 8

        # Lost SYNs/ACKs take RTO backoff (1s, 2s, ...) to repair, so
        # the handshake bound is generous (idle sim time is cheap).
        assert testbed.run(until=accepted, max_time_s=30.0)
        payloads = {flow: patterned_data(8000, salt=i) for i, flow in enumerate(a_flows)}
        for flow, data in payloads.items():
            testbed.engine_a.send_data(flow, data)
        assert testbed.run(
            until=lambda: all(
                testbed.engine_b.readable(flow) >= 8000 for flow in b_flows
            ),
            max_time_s=testbed.now_s + 30.0,
        )
        received = [testbed.engine_b.recv_data(flow, 8000) for flow in b_flows]
        assert sorted(received) == sorted(payloads.values())


class TestWireByteFidelity:
    def test_segments_survive_byte_serialization(self):
        """Serialize every frame to wire bytes and reparse on delivery:
        proves the generated packets are valid IPv4/TCP."""
        testbed = Testbed()
        original_send = testbed.wire.port_a.send

        def byte_exact_send(frame, now_ps):
            if isinstance(frame.payload, TcpSegment):
                frame.payload = frame.payload.to_bytes()
            original_send(frame, now_ps)

        testbed.wire.port_a.send = byte_exact_send
        a_flow, b_flow = testbed.establish()
        data = patterned_data(30_000)
        assert transfer(testbed, a_flow, b_flow, data) == data

    def test_slow_link_paces_transfer(self):
        """A 1 Gbps link bounds goodput at the serialization rate."""
        testbed = Testbed(wire=Wire(link=_OneGigLink(propagation_delay_us=2.0)))
        a_flow, b_flow = testbed.establish()
        start = testbed.now_s
        data = patterned_data(100_000)
        transfer(testbed, a_flow, b_flow, data, max_time_s=10.0)
        elapsed = testbed.now_s - start
        goodput_gbps = len(data) * 8 / elapsed / 1e9
        assert goodput_gbps <= 1.0
        assert goodput_gbps > 0.3  # and the link is reasonably utilized


class TestAlternativeAlgorithms:
    @pytest.mark.parametrize("algorithm", ["cubic", "vegas", "bbr-lite"])
    def test_bulk_transfer_with_each_algorithm(self, algorithm):
        """Every registered algorithm moves data end-to-end (§4.5)."""
        config = FtEngineConfig(algorithm=algorithm)
        testbed = Testbed(config_a=config, config_b=FtEngineConfig())
        a_flow, b_flow = testbed.establish()
        data = patterned_data(60_000)
        assert transfer(testbed, a_flow, b_flow, data) == data

    def test_bbr_survives_loss(self):
        config = FtEngineConfig(algorithm="bbr-lite")
        wire = Wire(drop_a_to_b=LossPattern.probability(0.02, seed=31))
        testbed = Testbed(config_a=config, config_b=FtEngineConfig(), wire=wire)
        # The SYN itself may be dropped; allow RTO-paced retries.
        a_flow, b_flow = testbed.establish()
        data = patterned_data(80_000)
        assert transfer(testbed, a_flow, b_flow, data) == data
