"""Micro-benchmarks of the engine's datapath components (wall time).

Unlike the exhibit benches (which report *simulated* rates), these
measure the Python implementation's own speed with pytest-benchmark's
normal statistics — useful for tracking regressions in the simulator.
"""

import random

from repro.engine.event_handler import EventEntry, accumulate_event
from repro.engine.events import EventKind, TcpEvent
from repro.engine.fpu import Fpu
from repro.tcp.cuckoo import CuckooHashTable
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.segment import FlowKey, TcpSegment
from repro.tcp.tcb import Tcb
from repro.tcp.state_machine import TcpState


def test_micro_cuckoo_lookup(benchmark):
    table = CuckooHashTable(capacity=16384)
    keys = [FlowKey(i, i % 65535, i * 3, 80) for i in range(4096)]
    for i, key in enumerate(keys):
        table.insert(key, i)

    def lookup_all():
        total = 0
        for key in keys[:512]:
            total += table.get(key)
        return total

    assert benchmark(lookup_all) == sum(range(512))


def test_micro_segment_wire_roundtrip(benchmark):
    segment = TcpSegment(
        src_ip=0x0A000001, dst_ip=0x0A000002, src_port=40000, dst_port=80,
        seq=1000, ack=2000, flags=0x18, payload=bytes(1460),
    )

    def roundtrip():
        return TcpSegment.from_bytes(segment.to_bytes()).seq

    assert benchmark(roundtrip) == 1000


def test_micro_reassembly_out_of_order(benchmark):
    chunks = [(i * 100, bytes([i % 256]) * 100) for i in range(64)]
    rng = random.Random(7)

    def reassemble():
        buffer = ReassemblyBuffer(rcv_nxt=0, window=1 << 20)
        order = chunks[:]
        rng.shuffle(order)
        for seq, payload in order:
            buffer.offer(seq, payload)
        return buffer.readable

    assert benchmark(reassemble) == 6400


def test_micro_event_accumulation(benchmark):
    events = [
        TcpEvent(EventKind.USER_REQ, 0, req=100 * (i + 1)) for i in range(256)
    ]

    def accumulate():
        entry = EventEntry()
        for event in events:
            accumulate_event(entry, event)
        return entry.req

    assert benchmark(accumulate) == 25600


def test_micro_fpu_pass(benchmark):
    fpu = Fpu("cubic")

    def one_pass():
        tcb = Tcb(flow_id=0)
        tcb.state = TcpState.ESTABLISHED
        tcb.req = 100_000
        tcb.snd_una = 0
        tcb.snd_nxt = 50_000
        tcb.cwnd = 80_000  # room to transmit after the ACK advance
        tcb.cc["_latest_ack"] = 20_000
        result = fpu.process(tcb, 0, now_ps=10**12)
        return len(result.directives)

    assert benchmark(one_pass) >= 1
