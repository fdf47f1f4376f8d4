"""The fabric layer's pinned trace: 8-host incast on the f4t backend.

Same discipline as ``tests/traffic/test_kernel_equivalence.py`` and
``tests/shard/test_determinism.py``: a golden constant, captured once,
that only a deliberate behaviour change may move.
"""

import hashlib
import json

import pytest

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


#: What a driver of the fabric observes, per (scenario, backend) at 4 and
#: 8 hosts, seed 1234: sha256 (first 16 hex digits) over the sorted
#: latency samples and ``FabricResult.scalars()``.  Recorded at the
#: commit *before* the event heap and due-only ticking replaced the
#: all-hosts sweep, so they pin the loop's contract rather than its
#: implementation — in rounds mode (incast, outcast) that includes the
#: round-release-on-next-instant rule, see ARCHITECTURE.md.
OBSERVED = {
    ("incast", "f4t"): ("f42b2fce19ca3df0", "b4adcfac5aa52d01"),
    ("incast", "flextoe"): ("35d3fe8d773e32e9", "ff9839afb02cd855"),
    ("incast", "pno"): ("a3f6a427df9fb9c9", "c29454f0a04eff45"),
    ("incast", "linux_stack"): ("b21fcf8cd3816c76", "8e8418e9af06581a"),
    ("outcast", "f4t"): ("f43d2cf12fe637ab", "34676fa874651109"),
    ("outcast", "flextoe"): ("6d32fd4a6dafc14b", "1e0e81986b590928"),
    ("outcast", "pno"): ("0e57269c4622443b", "9f50d2898b0bd2c4"),
    ("outcast", "linux_stack"): ("b7580715e60f2755", "dc663a3ae7a179e1"),
    ("flash_crowd", "f4t"): ("9f6a5a3dd4899eb6", "72b9ff22ceea8446"),
    ("flash_crowd", "flextoe"): ("65b5998f522b7f23", "b3539e20711d83a9"),
    ("flash_crowd", "pno"): ("be51f53db7b9a4db", "1a52a73d446465e1"),
    ("flash_crowd", "linux_stack"): ("7eaedd48654ac58e", "01b8c14c70bf506a"),
    ("zipf_fanout", "f4t"): ("1ae6a369a6b29a8a", "c8012524ebb44ae7"),
    ("zipf_fanout", "flextoe"): ("8a983d56eb64fd0f", "36f9eb0a683ef58b"),
    ("zipf_fanout", "pno"): ("af3cb79257f6a96c", "691e8a232af12336"),
    ("zipf_fanout", "linux_stack"): ("d51c9c7ba9d6e165", "15fb7e86500673cc"),
}


def observed_digest(result) -> str:
    blob = json.dumps([
        sorted(repr(v) for v in result.latencies.samples),
        sorted((k, repr(v)) for k, v in result.scalars().items()),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,backend", sorted(OBSERVED))
def test_driver_observations_are_pinned(name, backend):
    for num_hosts, expected in zip((4, 8), OBSERVED[name, backend]):
        scenario = get_fabric_scenario(name, num_hosts=num_hosts, seed=1234)
        result = run_fabric(scenario, backend=backend)
        assert observed_digest(result) == expected, (name, backend, num_hosts)
