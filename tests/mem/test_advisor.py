"""repro.mem.advisor — FlowHeat verdicts and policy resolution."""

import pytest

from repro.mem.advisor import (
    POLICIES,
    POLICY_PREDICTIVE,
    POLICY_REACTIVE,
    FlowHeat,
    resolve_policy,
)
from repro.mem.sketch import CountMinSketch, ExactOracle


def heated(heavy=0, mice=32, rounds=40):
    """A FlowHeat fed a stream where ``heavy`` dominates ``mice`` peers."""
    heat = FlowHeat(CountMinSketch(width=1024, seed=1))
    for _ in range(rounds):
        for _ in range(mice):
            heat.record(heavy)
        for mouse in range(1, mice + 1):
            heat.record(mouse)
    return heat


class TestFlowHeat:
    def test_warmup_suppresses_verdicts(self):
        heat = FlowHeat(CountMinSketch(width=64, seed=1))
        for _ in range(FlowHeat.min_total // 2):
            heat.record(0)
        assert heat.hot_threshold == float("inf")
        assert not heat.is_hot(0)

    def test_heavy_hitter_is_hot_after_warmup(self):
        heat = heated()
        assert heat.is_hot(0)
        assert not heat.is_hot(5)
        assert heat.stats()["hot_hits"] >= 1

    def test_hot_flows_lists_only_hot(self):
        heat = heated()
        top = heat.sketch.heavy_hitters(8)
        assert [flow for flow, _ in top if heat.is_hot(flow)] == [0]

    def test_coldness_key_orders_by_estimate_then_recency(self):
        heat = heated()
        # A mouse sorts before the heavy hitter even if touched later.
        assert heat.coldness_key(5, 100) < heat.coldness_key(0, 50)
        # Equal estimates fall back to last_active (LRU) ordering.
        assert heat.coldness_key(5, 50) < heat.coldness_key(5, 100)

    def test_estimate_tracks_oracle(self):
        heat = heated()
        oracle = ExactOracle()
        for _ in range(40 * 32):
            oracle.update(0)
        assert heat.estimate(0) >= oracle.estimate(0)

class TestResolvePolicy:
    def test_none_is_reactive(self):
        assert resolve_policy(None) == POLICY_REACTIVE

    @pytest.mark.parametrize("policy", POLICIES)
    def test_valid_round_trip(self, policy):
        assert resolve_policy(policy) == policy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_policy("psychic")

    def test_names(self):
        assert POLICY_REACTIVE == "reactive"
        assert POLICY_PREDICTIVE == "predictive"
