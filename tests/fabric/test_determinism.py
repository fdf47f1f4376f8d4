"""The fabric layer's pinned trace: 8-host incast on the f4t backend.

Same discipline as ``tests/traffic/test_kernel_equivalence.py`` and
``tests/shard/test_determinism.py``: a golden constant, captured once,
that only a deliberate behaviour change may move.
"""

from repro.fabric import get_fabric_scenario, run_fabric
from repro.obs.trace import TraceBus, fingerprint

#: Fabric-layer trace fingerprint of ``incast`` (8 hosts, seed 1234,
#: backend f4t), carried over unchanged from the retired perf baseline
#: files, its only home until PR 12.  If a change moves this hash it
#: changed simulated fabric behaviour — that can be legitimate, but
#: re-capture it in the same change and say why.
GOLDEN_INCAST_F4T = (
    "62feb91e3ee89f99c3b1679b437f78b1284e43d8001738eb3b4b90b7474f6a20"
)


def test_incast_f4t_trace_matches_golden():
    scenario = get_fabric_scenario("incast", num_hosts=8, seed=1234)
    bus = TraceBus(layers=["fabric"])
    result = run_fabric(scenario, backend="f4t", trace=bus)
    assert result.finished
    assert bus.dropped == 0  # the hash covers the whole stream
    assert fingerprint(bus.events) == GOLDEN_INCAST_F4T
