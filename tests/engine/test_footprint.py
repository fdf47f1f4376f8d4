"""What one held-open connection pins in the engines, counted — not
timed, not RSS.

The spill shape (round-robin flows over 4 x 16 TCB slots per engine,
two 128 B rounds, then held open) is run at two sizes under
``tracemalloc`` with the load engine kept alive; the traced bytes per
held-open connection are the *slope* between the two, so what does not
grow with the connection count — modules, the flow table's empty
buckets, SRAM tables, the tracer itself — cancels (the method of
``tests/shard/test_footprint.py``).
"""

import gc
import tracemalloc

from repro.apps.roundrobin import round_robin_scenario
from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.traffic.engine import LoadEngine

#: Traced bytes per held-open connection (a client and a server flow)
#: at 256 -> 512 flows: 5,225 on CPython 3.11, 5,217 on 3.12, 4,895 on
#: 3.9, once TCBs, event entries and the other per-flow records lost
#: their instance dicts, the host queues were popped, cancelled timers
#: swept, idle DRAM flows kept no event entry and the flow table kept
#: only occupied buckets; 10,776 (3.11) before.  The ceiling leaves
#: ~15 %: a per-flow ``__dict__``, a message kept per send or a timer
#: entry per send fails it.
TRACED_CEILING_B = 6_000

SMALL, LARGE = 256, 512


def _held_open(flows):
    gc.collect()
    tracemalloc.start()
    try:
        config = FtEngineConfig(num_fpcs=4, fpc_slots=16)
        load_engine = LoadEngine(
            round_robin_scenario(flows, 2, 128),
            testbed=Testbed(config_a=config, config_b=config),
        )
        result = load_engine.run(setup_time_s=5.0, run_time_s=2.0)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.finished and result.completed == result.offered
    assert len(load_engine.testbed.engine_a.flows) == flows  # held open
    return traced, load_engine


def test_traced_bytes_per_held_open_connection():
    (small, _), (large, _) = _held_open(SMALL), _held_open(LARGE)
    slope = (large - small) / (LARGE - SMALL)
    assert 0 < slope <= TRACED_CEILING_B, f"{slope:.0f} B per connection"
