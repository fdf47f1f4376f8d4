"""wrk-style HTTP load generator (§5.2).

The functional counterpart of :func:`repro.apps.nginx.simulate_closed_loop`:
drives GET-sized requests and 256 B responses over real connections on
the two-engine testbed and measures per-request latency in *simulated*
time.  Since the harness frames requests by byte counts, the wire
carries the exact ``http_get()`` request and response sizes of the
nginx exhibit without a protocol parser in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.stats import Histogram
from ..traffic import Fixed, Scenario, TrafficClass, run_scenario
from .nginx import RESPONSE_BYTES, http_get


@dataclass
class WrkResult:
    requests_completed: int
    elapsed_s: float
    latencies: Histogram

    @property
    def requests_per_s(self) -> float:
        return self.requests_completed / self.elapsed_s if self.elapsed_s else 0.0


def wrk_scenario(
    connections: int = 4, requests_per_connection: int = 8
) -> Scenario:
    """The wrk exhibit as a traffic scenario: closed-loop HTTP GETs."""
    return Scenario(
        name="wrk",
        description="closed-loop GET/256B-response over persistent conns",
        server_port=80,
        classes=[
            TrafficClass(
                name="wrk",
                request=Fixed(len(http_get())),
                response=Fixed(RESPONSE_BYTES),
                connections=connections,
                rounds=requests_per_connection,
            )
        ],
    )


def run_functional_wrk(
    connections: int = 4,
    requests_per_connection: int = 8,
) -> WrkResult:
    """Closed-loop GETs over real connections, set up and run within two
    simulated seconds each; returns rate + latencies.

    A thin preset over :mod:`repro.traffic`'s persistent closed loop.
    """
    result = run_scenario(
        wrk_scenario(connections, requests_per_connection),
        setup_time_s=2.0,
        run_time_s=2.0,
        raise_on_incomplete=True,
    )
    metrics = result.classes["wrk"]
    return WrkResult(metrics.completed, result.elapsed_s, metrics.latencies)
