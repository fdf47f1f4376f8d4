"""The ``repro.sim`` public surface, pinned.

``repro.sim`` is what several models share — the component base, the
DRAM channel and histograms; the models own their loops, clocks,
tables and queues.  A name that appears here (a re-export of a retired
clock kernel, say) or disappears shows up as a diff against this list.
"""

import repro.sim

EXPECTED = ["Component", "DRAMModel", "Histogram"]


def test_all_is_exactly_the_primitives_and_stats():
    assert sorted(repro.sim.__all__) == EXPECTED
    for name in EXPECTED:
        assert getattr(repro.sim, name).__module__.startswith("repro.sim.")
    # No lazy hook that could hand out names missing from the list.
    assert "__getattr__" not in vars(repro.sim)
