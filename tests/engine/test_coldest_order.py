"""The coldest-first order picks what the retired scan picked.

``FlowProcessingCore.coldest_flow`` reads the head of an order the FPC
keeps as flows are accepted, dispatched, written back, asked to leave
and released; ``_coldest_scan_oracle.py`` is the scan it replaced.  They
are held equal on every call: over random operation sequences on a
stand-alone FPC (ties in ``last_active``, swap-ins older than every
processed flow, write-backs that do not advance it), and over the spill
runs, where every round evicts and swaps in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.roundrobin import round_robin_scenario
from repro.engine.baseline import NullFpu
from repro.engine.events import user_send_event
from repro.engine.fpc import FlowProcessingCore
from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.traffic.engine import LoadEngine

from .._records import make_tcb
from ._coldest_scan_oracle import coldest_flow_by_scan

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["accept", "event", "evict", "release", "tick"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, latency=st.sampled_from([2, 5]))
def test_every_pick_equals_the_scan(ops, latency):
    fpc = FlowProcessingCore(0, slots=6, fpu=NullFpu(latency))
    next_id = 0
    for op, pick, when in ops:
        resident = fpc.resident_flows()
        flow = resident[pick % len(resident)] if resident else None
        if op == "accept" and fpc.flow_count < fpc.slots:
            # Few distinct instants: ties in last_active are common, and
            # an accepted flow is often older than a written-back one.
            fpc.accept_tcb(make_tcb(next_id, last_active=when * 1000))
            next_id += 1
        elif op == "event" and flow is not None:
            fpc.offer_event(user_send_event(flow, 100 + pick, when * 1000))
        elif op == "evict" and flow is not None:
            fpc.request_evict(flow)
        elif op == "release" and flow is not None:
            fpc.release(flow)
        else:
            for _ in range(when + 1):
                fpc.tick()
                fpc.drain_results()
                fpc.drain_evicted()
        assert fpc.coldest_flow() == coldest_flow_by_scan(fpc)


def test_an_old_swap_in_outranks_the_processed_flows():
    fpc = FlowProcessingCore(0, slots=4, fpu=NullFpu(2))
    for flow_id in range(3):
        fpc.accept_tcb(make_tcb(flow_id, last_active=5000))
    assert fpc.coldest_flow() == 0  # a tie goes to the CAM's first
    fpc.accept_tcb(make_tcb(3, last_active=1000))  # back from DRAM
    assert fpc.coldest_flow() == 3
    fpc.request_evict(3)
    assert fpc.coldest_flow() == 0
    fpc.release(0)
    assert fpc.coldest_flow() == 1


def _checked(monkeypatch):
    """Every ``coldest_flow`` call compared with the scan; returns the
    call and mismatch counts."""
    counts = {"calls": 0, "mismatches": 0}
    picked = FlowProcessingCore.coldest_flow

    def checked(fpc):
        flow = picked(fpc)
        counts["calls"] += 1
        counts["mismatches"] += flow != coldest_flow_by_scan(fpc)
        return flow

    monkeypatch.setattr(FlowProcessingCore, "coldest_flow", checked)
    return counts


@pytest.mark.parametrize(
    "flows, rounds, config",
    [
        (64, 3, FtEngineConfig(num_fpcs=2, fpc_slots=8)),
        (256, 2, FtEngineConfig(num_fpcs=4, fpc_slots=16)),
    ],
    ids=["golden-spill", "rr-spill"],
)
def test_the_spill_runs_pick_what_the_scan_picks(flows, rounds, config, monkeypatch):
    counts = _checked(monkeypatch)
    load_engine = LoadEngine(
        round_robin_scenario(flows, rounds, 128),
        testbed=Testbed(config_a=config, config_b=config),
    )
    result = load_engine.run(setup_time_s=5.0, run_time_s=2.0)
    assert result.finished and result.completed == result.offered
    assert counts["calls"] > 100 and counts["mismatches"] == 0, counts
