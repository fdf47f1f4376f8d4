"""The ``repro.sim`` public surface, pinned.

``repro.sim`` is hardware primitives plus stats; the models own their
loops and clocks.  A name that appears here (a re-export of a retired
clock kernel, say) or disappears shows up as a diff against this list.
"""

import repro.sim

EXPECTED = [
    "CAM",
    "Component",
    "Counters",
    "DRAMModel",
    "DualPortSRAM",
    "Fifo",
    "Histogram",
    "PartitionedLUT",
    "Pipeline",
    "RateMeter",
]


def test_all_is_exactly_the_primitives_and_stats():
    assert sorted(repro.sim.__all__) == EXPECTED
    for name in EXPECTED:
        assert getattr(repro.sim, name).__module__.startswith("repro.sim.")
    # No lazy hook that could hand out names missing from the list.
    assert "__getattr__" not in vars(repro.sim)
