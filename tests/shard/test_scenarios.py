"""ShardScenario geometry, derived schedules and preset shapes."""

from array import array

import pytest

from repro.net.link import LINK_100G
from repro.shard import ShardPair, ShardScenario, get_shard_scenario
from repro.shard.scenarios import available_shard_scenarios


def _scenario(**overrides) -> ShardScenario:
    defaults = dict(
        name="t",
        num_hosts=8,
        num_cells=4,
        pairs=(ShardPair(client=0, server=4, conns=10),),
    )
    defaults.update(overrides)
    return ShardScenario(**defaults)


class TestGeometry:
    def test_contiguous_cell_blocks(self):
        scenario = _scenario()
        assert scenario.hosts_per_cell == 2
        assert scenario.hosts_of_cell(0) == [0, 1]
        assert scenario.hosts_of_cell(3) == [6, 7]
        assert [scenario.cell_of(h) for h in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_hosts_must_divide_into_cells(self):
        with pytest.raises(ValueError):
            _scenario(num_hosts=7)

    def test_epoch_is_the_propagation_bound(self):
        scenario = _scenario()
        assert scenario.epoch_ps == int(LINK_100G.propagation_delay_us * 10**6)

    def test_loopback_pair_rejected(self):
        with pytest.raises(ValueError):
            ShardPair(client=3, server=3, conns=1)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            _scenario(pairs=(
                ShardPair(0, 4, conns=1),
                ShardPair(0, 4, conns=2),
            ))


class TestSchedules:
    def test_schedule_is_deterministic_and_increasing(self):
        scenario = _scenario()
        (pair,) = scenario.pairs
        instants = scenario.connect_instants(pair)
        assert instants == scenario.connect_instants(pair)
        assert isinstance(instants, array) and instants.typecode == "q"
        assert len(instants) == pair.conns
        assert list(instants) == sorted(set(instants))  # strictly increasing
        assert all(0 <= at < scenario.connect_window_ps for at in instants)

    def test_seed_moves_the_schedule(self):
        scenario = _scenario()
        (pair,) = scenario.pairs
        assert scenario.connect_instants(pair) != (
            scenario.with_seed(9).connect_instants(pair)
        )

    def test_transact_every_thins_transactions(self):
        pair = ShardPair(0, 4, conns=8, transact_every=4)
        framings = [pair.framing(index) for index in range(pair.conns)]
        assert [i for i, f in enumerate(framings) if f != (0, 0)] == [0, 4]
        assert framings[4] == (ShardPair.req_bytes, ShardPair.resp_bytes)
        idle = ShardPair(0, 4, conns=8, transact_every=0)
        assert {idle.framing(index) for index in range(8)} == {(0, 0)}

    def test_scaled_shrinks_conns(self):
        scenario = _scenario(pairs=(ShardPair(0, 4, conns=1280),))
        dry = scenario.scaled(128)
        assert dry.total_conns == 10
        assert dry.name.endswith("/dry128")


class TestPresets:
    def test_registry_has_both_presets(self):
        assert set(available_shard_scenarios()) >= {"churn", "megaflow"}

    def test_megaflow_is_a_million_flows(self):
        megaflow = get_shard_scenario("megaflow")
        assert megaflow.total_conns >= 1_000_000
        assert not megaflow.close_after  # held open -> concurrency peak
        assert not megaflow.fingerprint_default  # tracing off by default
        assert megaflow.num_cells >= 4

    def test_churn_closes_its_conns(self):
        churn = get_shard_scenario("churn")
        assert churn.close_after
        assert churn.fingerprint_default

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_shard_scenario("nope")
