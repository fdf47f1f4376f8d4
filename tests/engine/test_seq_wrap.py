"""32-bit sequence wrap across a transfer, and across eviction and
swap-in.

Both engines' initial sequence numbers are moved just short of 2**32,
so every pointer the FPU, the event table, the check logic and the
reassembly compare crosses the wrap mid-run: once in a bulk transfer,
once while every round of a spilling round-robin evicts and swaps in.
"""

import random

from repro.apps.roundrobin import round_robin_scenario
from repro.engine.ftengine import FtEngine, FtEngineConfig
from repro.engine.testbed import Testbed, message_driven
from repro.tcp.seq import SEQ_MOD
from repro.traffic.engine import LoadEngine


def _iss_at(monkeypatch, before_wrap):
    monkeypatch.setattr(
        FtEngine, "_initial_seq", lambda self, flow_id: SEQ_MOD - before_wrap
    )


def test_bulk_transfer_across_the_wrap_is_byte_identical(monkeypatch):
    _iss_at(monkeypatch, 100_000)  # 256 KB later the stream has wrapped
    payload = random.Random(7).randbytes(256 * 1024)
    tb = Testbed()
    a_flow, b_flow = tb.establish()
    assert tb.engine_a.tcb_of(a_flow).iss == SEQ_MOD - 100_000
    sent, received = 0, bytearray()

    def pump() -> bool:
        nonlocal sent
        sent += tb.engine_a.send_data(a_flow, payload[sent:sent + 65536])
        readable = tb.engine_b.readable(b_flow)
        if readable:
            received.extend(tb.engine_b.recv_data(b_flow, readable))
        return len(received) >= len(payload)

    assert tb.run(until=pump, max_time_s=tb.now_s + 1.0, next_call_ps=message_driven)
    assert bytes(received) == payload
    assert tb.engine_a.tcb_of(a_flow).snd_nxt < SEQ_MOD - 100_000  # wrapped


def _spill(monkeypatch=None):
    """The quick ``rr_spill`` shape: what a run measures and counts."""
    if monkeypatch is not None:
        _iss_at(monkeypatch, 200)  # each side's 2 x 128 B cross the wrap
    config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
    load_engine = LoadEngine(
        round_robin_scenario(256, 2, 128),
        testbed=Testbed(config_a=config, config_b=config),
    )
    result = load_engine.run(setup_time_s=5.0, run_time_s=2.0)
    testbed = load_engine.testbed
    latencies = {
        name: metrics.latencies.samples for name, metrics in result.classes.items()
    }
    reports = [engine.stats_report() for engine in (testbed.engine_a, testbed.engine_b)]
    return result.completed, result.offered, latencies, reports, testbed


def test_spill_across_the_wrap_matches_the_default_iss(monkeypatch):
    *default, _ = _spill()
    *wrapped, testbed = _spill(monkeypatch)
    assert wrapped[0] == wrapped[1] > 0
    assert wrapped == default
    evictions = [report["scheduler"]["evictions"] for report in wrapped[3]]
    assert min(evictions) > 0
    # Every server flow received its 2 x 128 B past 2**32: its receive
    # pointer wrapped to a small one.
    server = testbed.engine_b
    assert len(server.flows) == 256
    assert all(
        server.rx_parser.rx_states[f].reassembly.rcv_nxt < 1000
        for f in server.flows
    )
