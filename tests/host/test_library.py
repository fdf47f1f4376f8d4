"""The F4T socket library: POSIX semantics over real engines."""

import pytest

from repro.engine.testbed import Testbed
from repro.host.library import F4TLibrary, WouldBlock
from repro.host.runtime import F4TRuntime


@pytest.fixture
def world():
    testbed = Testbed()

    def pump_for(engine_testbed):
        def pump(condition, timeout_s):
            return engine_testbed.run(
                until=condition, max_time_s=engine_testbed.now_s + timeout_s
            )
        return pump

    lib_a = F4TLibrary(testbed.engine_a, pump=pump_for(testbed))
    lib_b = F4TLibrary(testbed.engine_b, pump=pump_for(testbed))
    return testbed, lib_a, lib_b


def connect_pair(world):
    testbed, lib_a, lib_b = world
    server = lib_b.socket()
    server.bind_listen(80)
    client = lib_a.socket()
    client.connect((testbed.engine_b.ip, 80))
    conn = server.accept()
    return client, conn


class TestSocketLifecycle:
    def test_connect_accept(self, world):
        client, conn = connect_pair(world)
        assert client.connected and conn.connected

    def test_send_recv(self, world):
        client, conn = connect_pair(world)
        client.sendall(b"hello over f4t")
        assert conn.recv_exactly(14) == b"hello over f4t"

    def test_echo_both_directions(self, world):
        client, conn = connect_pair(world)
        client.sendall(b"ping")
        assert conn.recv_exactly(4) == b"ping"
        conn.sendall(b"pong")
        assert client.recv_exactly(4) == b"pong"

    def test_large_transfer_blocks_and_completes(self, world):
        client, conn = connect_pair(world)
        data = bytes(x % 256 for x in range(900_000))  # > 512 KB buffer
        received = bytearray()
        testbed, _, _ = world

        # Interleave: sendall would deadlock without a reader, so pump
        # reads from the server side while the client pushes.
        sent = 0
        while sent < len(data):
            try:
                client.blocking = False
                sent += client.send(data[sent:])
            except WouldBlock:
                pass
            finally:
                client.blocking = True
            readable = testbed.engine_b.readable(conn.flow_id)
            if readable:
                received += conn.recv(readable)
            testbed.run(max_time_s=testbed.now_s + 1e-5)
        while len(received) < len(data):
            received += conn.recv(len(data) - len(received))
        assert bytes(received) == data

    def test_close_delivers_eof(self, world):
        client, conn = connect_pair(world)
        client.sendall(b"bye")
        client.close()
        assert conn.recv_exactly(3) == b"bye"
        assert conn.recv(10) == b""  # EOF



class TestNonBlocking:
    def test_recv_would_block(self, world):
        client, conn = connect_pair(world)
        conn.blocking = False
        with pytest.raises(WouldBlock):
            conn.recv(10)

    def test_accept_would_block(self, world):
        _, _, lib_b = world
        server = lib_b.socket()
        server.bind_listen(81)
        server.blocking = False
        with pytest.raises(WouldBlock):
            server.accept()

    def test_send_would_block_when_buffer_full(self, world):
        client, conn = connect_pair(world)
        client.blocking = False
        huge = bytes(600_000)
        sent = client.send(huge)  # fills the 512 KB buffer
        assert sent == 512 * 1024
        with pytest.raises(WouldBlock):
            client.send(b"more")


class TestErrors:
    def test_send_unconnected(self, world):
        _, lib_a, _ = world
        with pytest.raises(OSError):
            lib_a.socket().send(b"x")

    def test_recv_unconnected(self, world):
        _, lib_a, _ = world
        with pytest.raises(OSError):
            lib_a.socket().recv(1)

    def test_accept_non_listening(self, world):
        _, lib_a, _ = world
        with pytest.raises(OSError):
            lib_a.socket().accept()


class TestRuntimeCommandPath:
    def test_commands_flow_through_rings(self, world):
        """The hot path really moves encoded 16 B commands."""
        testbed, lib_a, _ = world
        client, conn = connect_pair(world)
        before = lib_a.runtime.commands_sent
        client.sendall(b"counted")
        assert lib_a.runtime.commands_sent == before + 1
        assert lib_a.runtime.mmio_doorbell_writes >= 1

    def test_completion_commands_decoded(self, world):
        testbed, lib_a, lib_b = world
        client, conn = connect_pair(world)
        client.sendall(b"x" * 1000)
        conn.recv_exactly(1000)
        # ACK completions arrived at the client library.
        testbed.run(max_time_s=testbed.now_s + 1e-4)
        lib_a.runtime.poll_completions()
        assert lib_a.runtime.commands_received >= 1

    def test_runtime_send_respects_queue_capacity(self, world):
        testbed, _, _ = world
        runtime = F4TRuntime(testbed.engine_a, thread_id=9)
        client, _ = connect_pair(world)
        # Fill the submission queue without flushing.
        pushed = 0
        while runtime.send(client.flow_id, b"z") > 0:
            pushed += 1
            if pushed > 2000:
                break
        assert pushed == 1024  # queue depth reached -> EAGAIN-style 0


class TestRuntimeDispatch:
    def test_completion_opcode_rejected_on_submission_path(self, world):
        """Hardware->software opcodes are invalid as submissions."""
        import pytest as _pytest
        from repro.host.commands import Command, Opcode

        testbed, lib_a, _ = world
        lib_a.runtime.queues.submission.push(Command(Opcode.ACKED, 1, 0))
        lib_a.runtime._pending_doorbell = True
        with _pytest.raises(ValueError, match="opcode"):
            lib_a.runtime.flush()

    def test_close_command_goes_through_ring(self, world):
        testbed, lib_a, _ = world
        client, conn = connect_pair(world)
        before = lib_a.runtime.commands_sent
        client.close()
        assert lib_a.runtime.commands_sent == before + 1


class TestCycleAccounting:
    def test_library_calls_charge_cycles(self, world):
        testbed, lib_a, _ = world
        client, conn = connect_pair(world)
        before = lib_a.cpu_account.total()
        client.sendall(b"x" * 100)
        conn.recv_exactly(100)
        assert lib_a.cpu_account.total() > before

    def test_cycles_scale_with_call_count(self, world):
        from repro.host.library import CALL_COST_CYCLES

        testbed, lib_a, _ = world
        client, conn = connect_pair(world)
        base = lib_a.cpu_account.total()
        for _ in range(10):
            client.send(b"y")
        delta = lib_a.cpu_account.total() - base
        assert delta == pytest.approx(10 * CALL_COST_CYCLES["send"])

    def test_thin_library_claim(self, world):
        """One request costs ~52 cycles in the library — versus ~2 270
        through the Linux stack (the Fig 8a calibration anchors)."""
        from repro.host.calibration import (
            F4T_CYCLES_PER_SEND_BULK,
            LINUX_CYCLES_PER_SEND_BULK,
        )

        assert LINUX_CYCLES_PER_SEND_BULK / F4T_CYCLES_PER_SEND_BULK > 40
