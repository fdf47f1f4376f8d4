"""The OffloadBackend registry and point-to-point construction."""

import pytest

from repro.engine.testbed import Testbed
from repro.fabric.backend import (
    available_backends,
    build_point_to_point,
    get_backend,
)
from repro.fabric.softstack import SoftTestbed


class TestRegistry:
    def test_four_backends_registered(self):
        assert available_backends() == ("f4t", "flextoe", "pno", "linux_stack")

    def test_functional_alias_resolves_to_f4t(self):
        assert get_backend("functional") is get_backend("f4t")

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(KeyError, match="flextoe"):
            get_backend("quantum")

    def test_provenance_labels(self):
        assert get_backend("f4t").provenance == "paper-backed"
        assert get_backend("flextoe").provenance == "model-backed"
        assert get_backend("pno").provenance == "model-backed"
        assert get_backend("linux_stack").provenance == "calibrated"

    def test_kinds_split_engine_from_soft(self):
        assert get_backend("f4t").kind == "engine"
        for name in ("flextoe", "pno", "linux_stack"):
            assert get_backend(name).kind == "soft"


class TestBuildPointToPoint:
    def test_f4t_returns_the_real_testbed(self):
        tb = build_point_to_point(backend="f4t")
        assert isinstance(tb, Testbed)

    def test_soft_backends_return_soft_testbeds(self):
        for name in ("flextoe", "pno", "linux_stack"):
            tb = build_point_to_point(backend=name)
            assert isinstance(tb, SoftTestbed)
            assert tb.backend == name

    def test_f4t_rejects_service_overrides(self):
        with pytest.raises(ValueError):
            build_point_to_point(backend="f4t", latency_ps=1)

    def test_soft_rejects_reordering(self):
        with pytest.raises(ValueError):
            build_point_to_point(backend="pno", reorder_probability=0.01)

    def test_impaired_f4t_wire_is_seeded(self):
        tb = build_point_to_point(backend="f4t", drop_probability=0.01, seed=5)
        assert isinstance(tb, Testbed)


class TestServiceOrdering:
    """The four service models must preserve the paper's latency story:
    F4T < FlexTOE < PnO < Linux for small-transfer latency."""

    def test_p99_orders_across_backends(self):
        from repro.traffic import get_scenario, run_scenario

        p99 = {}
        for name in ("f4t", "flextoe", "pno", "linux_stack"):
            result = run_scenario(get_scenario("rpc", seed=7), backend=name)
            assert result.finished, name
            assert result.backend == name
            p99[name] = result.p99_s
        assert p99["f4t"] < p99["flextoe"] < p99["pno"] < p99["linux_stack"]

    @pytest.mark.parametrize("backend", ["flextoe", "pno", "linux_stack"])
    def test_a_request_larger_than_one_push_finishes(self, backend):
        """A 600 KB request leaves its conn sending with buffer room
        after an advance, so the pump's may-act rule asks the backend
        for its send room — which soft flows answer too."""
        from repro.traffic import Fixed, Poisson, Scenario, TrafficClass, run_scenario

        scenario = Scenario(
            name="large-requests",
            classes=[TrafficClass(
                name="large", arrival=Poisson(rate=200e3), request=Fixed(600_000),
            )],
            duration_s=50e-6,
        )
        result = run_scenario(scenario, backend=backend)
        assert result.finished
        assert result.completed == result.offered > 0

    def test_mixed_on_a_soft_testbed_completes_every_request(self):
        from repro.traffic import get_scenario, run_scenario

        result = run_scenario(get_scenario("mixed"), backend="flextoe")
        assert result.finished
        assert result.completed == result.offered

    def test_audit_rejected_on_soft_backends(self):
        from repro.traffic import get_scenario
        from repro.traffic.engine import LoadEngine

        with pytest.raises(ValueError, match="audit"):
            LoadEngine(get_scenario("rpc"), backend="flextoe", audit=True)
