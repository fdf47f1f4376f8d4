"""One engine holds the paper's 64 K flows (§4.3, Fig 13).

The RX parser's cuckoo flow table is sized so that 65,536 flows sit at
load 0.25; a 2-way table with one slot per bucket stops near 0.5, and
the 131,072 slots it had before refused the 61,381st ``connect``.  One
destination admits only the 64,512 source ports 1024..65535, so the
65,536 opens go to two destination ports.
"""

from repro.engine.ftengine import FtEngine
from repro.engine.rx_parser import FLOW_TABLE_SLOTS

FLOWS = 65_536


def test_one_engine_accepts_65536_connects():
    engine = FtEngine(0x0A000001)
    for i in range(FLOWS):
        engine.connect(0x0A000002, 80 + (i & 1))
    table = engine.rx_parser.flow_table
    assert len(engine.flows) == len(table) == FLOWS
    assert table.capacity == FLOW_TABLE_SLOTS
    assert table.load_factor == 0.25
    assert table.failed_inserts == 0 and not table._stash
    # Every flow the scheduler placed: SRAM first, the rest in DRAM.
    sram = sum(fpc.flow_count for fpc in engine.fpcs)
    assert sram == engine.config.sram_flow_capacity
    assert sram + engine.memory_manager.flow_count == FLOWS
