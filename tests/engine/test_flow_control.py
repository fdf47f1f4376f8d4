"""Flow control end-to-end: window closes, probes, window updates."""

import pytest

from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed


class _SmallReceiveBuffer(FtEngineConfig):
    recv_buffer = 8 * 1024


@pytest.fixture
def small_buffer_testbed():
    """Receiver with a tiny 8 KB buffer so the window closes quickly."""
    return Testbed(config_a=FtEngineConfig(), config_b=_SmallReceiveBuffer())


class TestReceiveWindow:
    def test_sender_stops_at_receiver_buffer(self, small_buffer_testbed):
        testbed = small_buffer_testbed
        a_flow, b_flow = testbed.establish()
        data = bytes(64 * 1024)
        testbed.engine_a.send_data(a_flow, data)
        # The server never reads: delivery stalls at the 8 KB window.
        testbed.run(max_time_s=testbed.now_s + 0.01)
        delivered = testbed.engine_b.readable(b_flow)
        assert delivered <= 8 * 1024
        assert delivered >= 4 * 1024  # but the window was used
        tcb = testbed.engine_a.tcb_of(a_flow)
        assert tcb.snd_wnd <= 8 * 1024

    def test_reading_reopens_the_window(self, small_buffer_testbed):
        testbed = small_buffer_testbed
        a_flow, b_flow = testbed.establish()
        data = bytes((i * 7) % 256 for i in range(64 * 1024))
        sent = {"n": 0}
        received = bytearray()

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(
                    a_flow, data[sent["n"] : sent["n"] + 4096]
                )
            readable = testbed.engine_b.readable(b_flow)
            if readable:
                received.extend(testbed.engine_b.recv_data(b_flow, readable))
            return len(received) >= len(data)

        assert testbed.run(until=pump, max_time_s=5.0)
        assert bytes(received) == data

    def test_zero_window_probe_resumes_stalled_flow(self, small_buffer_testbed):
        """Fill the window completely, wait past the persist timer,
        then read: the probe/window-update machinery must resume the
        transfer rather than deadlock."""
        testbed = small_buffer_testbed
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, bytes(32 * 1024))
        # Stall with the receiver asleep until well past the RTO.
        testbed.run(max_time_s=testbed.now_s + 1.5)
        stalled_at = testbed.engine_b.readable(b_flow)
        assert stalled_at <= 8 * 1024

        drained = {"n": 0}

        def drain():
            readable = testbed.engine_b.readable(b_flow)
            if readable:
                drained["n"] += len(testbed.engine_b.recv_data(b_flow, readable))
            return drained["n"] >= 32 * 1024

        assert testbed.run(until=drain, max_time_s=testbed.now_s + 30.0)

    def test_window_advertised_shrinks_and_grows(self, small_buffer_testbed):
        testbed = small_buffer_testbed
        a_flow, b_flow = testbed.establish()
        testbed.engine_a.send_data(a_flow, bytes(6 * 1024))
        testbed.run(
            until=lambda: testbed.engine_b.readable(b_flow) >= 6 * 1024,
            max_time_s=0.05,
        )
        # Let the final ACK (carrying the shrunken window) reach A.
        testbed.run(max_time_s=testbed.now_s + 1e-3)
        shrunk = testbed.engine_a.tcb_of(a_flow).snd_wnd
        assert shrunk <= 2 * 1024  # 8 KB buffer minus 6 KB undelivered
        testbed.engine_b.recv_data(b_flow, 6 * 1024)
        testbed.run(max_time_s=testbed.now_s + 0.001)
        # The consumption-pointer command reopened the window.
        regrown = testbed.engine_a.tcb_of(a_flow).snd_wnd
        assert regrown > shrunk
