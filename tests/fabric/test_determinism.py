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
#: files, then re-captured once when the fabric pump began declaring its
#: next instant (a round now starts 1 ps after the call that saw its last
#: completion).  If a change moves this hash it changed simulated fabric
#: behaviour — that can be legitimate, but re-capture it in the same
#: change and say why.
GOLDEN_INCAST_F4T = (
    "7321cefdba78011757808617c6c754bb355a08c88188f2f8067702522076f33c"
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
#: latency samples and ``FabricResult.scalars()``.  They pin the loop's
#: contract rather than its implementation — in rounds mode (incast,
#: outcast) that includes the rule that a round starts 1 ps after the
#: pump call that saw its last completion, see ARCHITECTURE.md.
OBSERVED = {
    ("incast", "f4t"): ("0ca969fc640f7abc", "81f9c961512da2c7"),
    ("incast", "flextoe"): ("cf388b7791619cad", "1f85ffdd1dd13c01"),
    ("incast", "pno"): ("13c3cb89f19c1656", "4647a356958a4ef1"),
    ("incast", "linux_stack"): ("e0e24ef7ce57335f", "b6daf9375d8f04db"),
    ("outcast", "f4t"): ("e00255135b598d03", "d71b552c44b41161"),
    ("outcast", "flextoe"): ("b5e28dd0071b485e", "4435c377c1799149"),
    ("outcast", "pno"): ("b2f14909530bc9ed", "7b6a069811dbee50"),
    ("outcast", "linux_stack"): ("1e76fc51ee6b1425", "a20a944084b75908"),
    ("flash_crowd", "f4t"): ("7233221d0ea0c904", "9023069d6b8e76aa"),
    ("flash_crowd", "flextoe"): ("5730c71075454703", "a832be3d3e626e38"),
    ("flash_crowd", "pno"): ("f563302792353b55", "e294ed13335c794f"),
    ("flash_crowd", "linux_stack"): ("50e89d22f6eeae75", "c9626e80ac305465"),
    ("zipf_fanout", "f4t"): ("5ae5a8397fcac06f", "851647f175ca3eac"),
    ("zipf_fanout", "flextoe"): ("bb59fb1fba1d19ea", "40c40c5fd03f69e4"),
    ("zipf_fanout", "pno"): ("705ab5d1a9e3c0f9", "8a4db1db73cce959"),
    ("zipf_fanout", "linux_stack"): ("8b88ff3c4a121124", "ac1b598707878e3e"),
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
