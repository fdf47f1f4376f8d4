"""A full flow table is a loud error that leaves no half-created flow.

The engine's cuckoo table (``rx_parser.flow_table``) is sized for the
reference design; here it holds 4 slots plus its 8-entry stash, so the
13th flow cannot be installed.  Whether that flow comes from the host
(``connect``) or from the wire (a SYN flood on a listening port),
creation must raise :class:`CuckooFullError` and leave nothing behind:
no flow record, no 4-tuple held, no scheduler placement.
"""

import pytest

from repro.engine.testbed import Testbed
from repro.tcp.cuckoo import CuckooFullError, CuckooHashTable

SLOTS = 4
FITS = SLOTS + CuckooHashTable.STASH_SIZE


def small_table(engine) -> None:
    engine.rx_parser.flow_table = CuckooHashTable(SLOTS)


def assert_no_orphan(engine, flows: int) -> None:
    assert len(engine.rx_parser.flow_table) == flows
    assert len(engine.flows) == flows
    assert engine._keys_in_use == {record.key for record in engine.flows.values()}
    assert set(engine.rx_parser.rx_states) == set(engine.flows)
    placed = [f for f in range(engine._next_flow_id) if engine.scheduler.lut.get(f)]
    assert placed == sorted(engine.flows)


def test_connect_past_a_full_table_raises_and_leaves_no_orphan():
    tb = Testbed()
    engine = tb.engine_a
    small_table(engine)
    for _ in range(FITS):
        engine.connect(tb.engine_b.ip, 80)
    with pytest.raises(CuckooFullError):
        engine.connect(tb.engine_b.ip, 80)
    assert_no_orphan(engine, FITS)


def test_syn_flood_past_a_full_table_raises_and_leaves_no_orphan():
    tb = Testbed()
    server = tb.engine_b
    small_table(server)
    server.listen(80)
    for _ in range(FITS + 4):
        tb.engine_a.connect(server.ip, 80)
    with pytest.raises(CuckooFullError):
        tb.run(until=lambda: False, max_time_s=1e-3)
    assert_no_orphan(server, FITS)
