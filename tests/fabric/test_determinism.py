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


#: The 8-host incast on linux_stack (seed 1234), the fabric run whose
#: RTOs fire: its ``FabricResult`` counters and fabric-layer trace
#: fingerprint, captured before the soft stacks' per-stack timer heaps
#: and the wake index over their heads became one heap per loop.
GOLDEN_INCAST_LINUX = (
    "dfa9b98851f1841dc174e573f2e81c8d845a7d513e66d03ef603d3a6375f413f"
)
GOLDEN_INCAST_LINUX_COUNTERS = {
    "offered": 21, "completed": 21, "bytes_delivered": 2_753_856,
    "retransmits": 2, "timeouts": 2, "switch_drops": 0, "ecn_marks": 0,
    "peak_buffer_bytes": 4_614, "elapsed_ps": 614_540_958,
}


def test_incast_linux_stack_timeouts_match_golden():
    scenario = get_fabric_scenario("incast", num_hosts=8, seed=1234)
    bus = TraceBus(layers=["fabric"])
    result = run_fabric(scenario, backend="linux_stack", trace=bus)
    assert result.finished and bus.dropped == 0
    counters = {
        name: getattr(result, name)
        for name in GOLDEN_INCAST_LINUX_COUNTERS if name != "elapsed_ps"
    }
    counters["elapsed_ps"] = round(result.elapsed_s * 1e12)
    assert counters == GOLDEN_INCAST_LINUX_COUNTERS
    assert fingerprint(bus.events) == GOLDEN_INCAST_LINUX


#: What a driver of the fabric observes, per (scenario, backend) at 4 and
#: 8 hosts, seed 1234: sha256 (first 16 hex digits) over the sorted
#: latency samples and ``FabricResult.scalars()``.  They pin the loop's
#: contract rather than its implementation — in rounds mode (incast,
#: outcast) that includes the rule that a round starts 1 ps after the
#: pump call that saw its last completion, see ARCHITECTURE.md.
#: Re-captured when latencies became ``(completion_ps - arrival_ps) /
#: 1e12``: the same ps (rounds mode) or 1 ps less (open loop, whose
#: arrival is now the whole-ps ceil the release was made at); the float
#: the samples and scalars ``repr`` to is what moved.
OBSERVED = {
    ("incast", "f4t"): ("a44f5fe9d34c4399", "4c0f9cc4ec42204c"),
    ("incast", "flextoe"): ("5050415367366b1f", "0c88476b9f7d257c"),
    ("incast", "pno"): ("f2711686a7935e9f", "a165c2b0c674ab6f"),
    ("incast", "linux_stack"): ("5a8e14c43ca56702", "a293f970d46863c9"),
    ("outcast", "f4t"): ("4107757d60579dad", "c00d59e9d2ed2eb1"),
    ("outcast", "flextoe"): ("976406f823de8276", "d0d3a2d14a8d1d8c"),
    ("outcast", "pno"): ("ef7565391ade710a", "421472029ace6c1a"),
    ("outcast", "linux_stack"): ("b398b9afae6c434e", "1d7a8d589e7874a5"),
    ("flash_crowd", "f4t"): ("8d0c7f6afdf1dc83", "3758474220baa78d"),
    ("flash_crowd", "flextoe"): ("184814c60159c3d6", "45d87fb9f2d46fd5"),
    ("flash_crowd", "pno"): ("7491e0f3e7e388a8", "4434c8af71909419"),
    ("flash_crowd", "linux_stack"): ("fd3268a0c0388983", "2721a9a93a67b90e"),
    ("zipf_fanout", "f4t"): ("428f05c637973445", "4d7d2b44eb8d8e7d"),
    ("zipf_fanout", "flextoe"): ("7b3f97d5a2f492b9", "29db9c34ebe77b49"),
    ("zipf_fanout", "pno"): ("c3f9979c6a955aa3", "ea11f946061b945b"),
    ("zipf_fanout", "linux_stack"): ("da2a03cde0d6b60e", "a15270c2d4008e6c"),
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
