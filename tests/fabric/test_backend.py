"""The backend registry, and the service models against the engine."""

import pytest

from repro.fabric.backend import available_backends, get_backend
from repro.traffic import LoadEngine, get_scenario

from ._soft_testbed import SoftTestbed


def run_on(scenario, backend: str):
    """``scenario`` on the engine pair (``f4t``) or on two soft stacks
    over ``backend``'s service model."""
    testbed = None
    if backend != "f4t":
        testbed = SoftTestbed(get_backend(backend).service_class)
    return LoadEngine(scenario, testbed=testbed).run()


class TestRegistry:
    def test_four_backends_registered(self):
        assert available_backends() == ("f4t", "flextoe", "pno", "linux_stack")

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


class TestServiceOrdering:
    """The real engine and the three uncalibrated service models carry
    identical traffic and keep the paper's latency story, ordering only:
    F4T < FlexTOE < PnO < Linux for small-transfer latency."""

    def test_p99_orders_across_backends(self):
        p99 = {}
        for name in ("f4t", "flextoe", "pno", "linux_stack"):
            result = run_on(get_scenario("rpc", seed=7), name)
            assert result.finished, name
            p99[name] = result.p99_s
        assert p99["f4t"] < p99["flextoe"] < p99["pno"] < p99["linux_stack"]

    @pytest.mark.parametrize("backend", ["flextoe", "pno", "linux_stack"])
    def test_a_request_larger_than_one_push_finishes(self, backend):
        """A 600 KB request leaves its conn sending with buffer room
        after an advance, so the pump's may-act rule asks the backend
        for its send room — which soft flows answer too."""
        from repro.traffic import Fixed, Poisson, Scenario, TrafficClass

        scenario = Scenario(
            name="large-requests",
            classes=[TrafficClass(
                name="large", arrival=Poisson(rate=200e3), request=Fixed(600_000),
            )],
            duration_s=50e-6,
        )
        result = run_on(scenario, backend)
        assert result.finished
        assert result.completed == result.offered > 0

    def test_mixed_on_a_soft_testbed_completes_every_request(self):
        result = run_on(get_scenario("mixed"), "flextoe")
        assert result.finished
        assert result.completed == result.offered
