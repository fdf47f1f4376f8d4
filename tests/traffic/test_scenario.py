"""Scenario composition, validation, schedules and the registry."""

import pytest

from repro.net.wire import derive_seed
from repro.traffic import (
    PER_REQUEST,
    Fixed,
    Impairments,
    Poisson,
    Scenario,
    TrafficClass,
    Zipf,
    available_scenarios,
    get_scenario,
)


class TestValidation:
    def test_open_xor_closed_loop(self):
        with pytest.raises(ValueError):
            TrafficClass(name="x", request=Fixed(64))  # neither
        with pytest.raises(ValueError):
            TrafficClass(
                name="x", request=Fixed(64), arrival=Poisson(1.0), rounds=4
            )  # both

    def test_per_request_needs_response(self):
        with pytest.raises(ValueError):
            TrafficClass(
                name="x",
                request=Fixed(64),
                response=Fixed(0),
                lifecycle=PER_REQUEST,
                transactions=4,
            )

    def test_unknown_lifecycle_and_empty_scenario(self):
        with pytest.raises(ValueError):
            TrafficClass(
                name="x", request=Fixed(1), rounds=1, lifecycle="weird"
            )
        with pytest.raises(ValueError):
            Scenario(name="empty", classes=[])

    def test_duplicate_class_names(self):
        cls = TrafficClass(name="a", request=Fixed(1), rounds=1)
        with pytest.raises(ValueError):
            Scenario(name="dup", classes=[cls, cls])

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("no-such-scenario")


class TestSchedule:
    def _scenario(self, seed=0):
        return Scenario(
            name="two-class",
            seed=seed,
            duration_s=1e-3,
            classes=[
                TrafficClass(
                    name="rpc",
                    arrival=Poisson(rate=50e3),
                    request=Fixed(64),
                    response=Fixed(256),
                ),
                TrafficClass(
                    name="bulk",
                    arrival=Poisson(rate=5e3),
                    request=Zipf(minimum=1024, maximum=65536),
                ),
            ],
        )

    def test_schedule_sorted_merged_and_indexed(self):
        schedule = self._scenario().schedule()
        assert schedule, "expected arrivals over 1 ms"
        assert [r.index for r in schedule] == list(range(len(schedule)))
        assert all(a.time_ps <= b.time_ps for a, b in zip(schedule, schedule[1:]))
        assert {r.cls for r in schedule} == {"rpc", "bulk"}

    def test_schedule_replayable_and_seed_sensitive(self):
        assert self._scenario(3).schedule() == self._scenario(3).schedule()
        assert self._scenario(3).schedule() != self._scenario(4).schedule()

    def test_load_scale_multiplies_arrivals_not_sizes(self):
        base = self._scenario().schedule(1.0)
        scaled = self._scenario().schedule(4.0)
        assert len(scaled) == pytest.approx(4 * len(base), rel=0.25)
        assert {r.request_bytes for r in scaled if r.cls == "rpc"} == {64}

    def test_derive_seed_is_stable_across_processes(self):
        # sha256-based, so stable across runs/machines — unlike hash().
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(7, "drop-a2b") == 4786490065570412971

    def test_impaired_wire_derived_from_scenario_seed(self):
        cls = TrafficClass(name="a", request=Fixed(1), rounds=1)
        scenario = Scenario(
            name="s",
            classes=[cls],
            impairments=Impairments(drop_probability=0.1),
        )
        assert scenario.build_wire() is not None
        plain = Scenario(name="s", classes=[cls])
        assert plain.build_wire() is None


class TestRegistry:
    def test_presets_registered(self):
        names = available_scenarios()
        for expected in ("mixed", "rpc", "bursts", "churn", "lossy-mixed"):
            assert expected in names

    def test_get_scenario_with_seed(self):
        assert get_scenario("rpc", seed=42).seed == 42
        assert get_scenario("rpc").seed == 0

    def test_describe_mentions_every_class(self):
        text = get_scenario("mixed").describe()
        for cls in ("rpc", "bulk", "flash"):
            assert cls in text
