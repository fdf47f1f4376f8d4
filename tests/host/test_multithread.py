"""Multithreaded software stack: SO_REUSEPORT + receive-side scaling (§4.6)."""

import pytest

from repro.engine.testbed import Testbed
from repro.host.library import F4TLibrary


@pytest.fixture
def world():
    testbed = Testbed()

    def pump(condition, timeout_s):
        return testbed.run(until=condition, max_time_s=testbed.now_s + timeout_s)

    return testbed, pump


class TestSoReuseport:
    def test_connections_distributed_across_threads(self, world):
        """§4.6: FtEngine evenly distributes new flows to the threads."""
        testbed, pump = world
        # Two server "threads" sharing port 80, one client thread.
        server_threads = [
            F4TLibrary(testbed.engine_b, pump=pump, thread_id=t) for t in (0, 1)
        ]
        client = F4TLibrary(testbed.engine_a, pump=pump)
        listeners = []
        for lib in server_threads:
            sock = lib.socket()
            sock.bind_listen(80)
            listeners.append(sock)

        clients = []
        for _ in range(6):
            sock = client.socket()
            sock.connect((testbed.engine_b.ip, 80))
            clients.append(sock)

        accepted = [listeners[0].accept() for _ in range(3)]
        accepted += [listeners[1].accept() for _ in range(3)]
        # Even distribution: each thread got exactly half.
        threads = [testbed.engine_b._flow_thread.get(s.flow_id, 0) for s in accepted]
        assert threads.count(0) == 3 and threads.count(1) == 3

    def test_data_follows_the_owning_thread(self, world):
        """RSS: a flow's completions land only on its thread's queue."""
        testbed, pump = world
        thread0 = F4TLibrary(testbed.engine_b, pump=pump, thread_id=0)
        thread1 = F4TLibrary(testbed.engine_b, pump=pump, thread_id=1)
        client = F4TLibrary(testbed.engine_a, pump=pump)

        listener0 = thread0.socket(); listener0.bind_listen(80)
        thread1.socket().bind_listen(80)

        c0 = client.socket(); c0.connect((testbed.engine_b.ip, 80))
        conn0 = listener0.accept()  # round-robin starts at thread 0
        c0.sendall(b"for thread zero")

        testbed.run(
            until=lambda: testbed.engine_b.readable(conn0.flow_id) >= 15,
            max_time_s=0.05,
        )
        # Thread 1 polling its queue sees nothing for this flow.
        assert testbed.engine_b.drain_host_messages(thread_id=1) == []
        assert conn0.recv_exactly(15) == b"for thread zero"

    def test_threads_share_no_queue_state(self, world):
        testbed, pump = world
        libs = [F4TLibrary(testbed.engine_a, pump=pump, thread_id=t) for t in range(3)]
        names = {lib.runtime.queues.submission.name for lib in libs}
        assert names == {"sq0", "sq1", "sq2"}  # per-thread rings

    def test_unknown_thread_messages_fall_back(self, world):
        """A flow whose thread was never registered lands on thread 0
        rather than vanishing."""
        testbed, pump = world
        flow = testbed.engine_a.connect(testbed.engine_b.ip, 7777, thread_id=9)
        testbed.engine_a._post_message("connected", flow)
        assert testbed.engine_a.drain_host_messages(thread_id=0)


class TestMultithreadedClients:
    def test_parallel_client_threads(self, world):
        """One library per 'core', each driving its own flows (§4.6)."""
        testbed, pump = world
        server = F4TLibrary(testbed.engine_b, pump=pump)
        listener = server.socket()
        listener.bind_listen(80)
        client_threads = [
            F4TLibrary(testbed.engine_a, pump=pump, thread_id=t) for t in range(4)
        ]
        socks = []
        for index, lib in enumerate(client_threads):
            sock = lib.socket()
            sock.connect((testbed.engine_b.ip, 80))
            sock.sendall(f"thread-{index}".encode())
            socks.append(sock)
        received = sorted(listener.accept().recv_exactly(8) for _ in range(4))
        assert received == [b"thread-0", b"thread-1", b"thread-2", b"thread-3"]
