"""Short-connection churn: connection setup/teardown as the workload.

Datacenter RPC and HTTP traffic open and close connections constantly —
the pattern AccelTCP built its stateless-offload case on (§2.3) and the
reason F4T processes the full handshake and teardown in hardware.  This
driver stresses exactly that: each transaction is connect → request →
response → close, so the engines spend their time in SYN/FIN processing,
flow allocation, accept-queue distribution and teardown rather than in
the data path.

Functional only (the paper reports no churn numbers to calibrate
against): the value here is exercising flow-lifecycle machinery under
load and measuring the reproduction's own connections/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.testbed import Testbed
from ..sim.stats import Histogram
from ..traffic import PER_REQUEST, Fixed, Scenario, TrafficClass, run_scenario


@dataclass
class ChurnResult:
    connections_completed: int
    elapsed_s: float
    lifecycle_latencies: Histogram  # connect -> fully closed, per connection

    @property
    def connections_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.connections_completed / self.elapsed_s


def churn_preset(
    connections: int = 10, request_bytes: int = 64, concurrency: int = 4
) -> Scenario:
    """Connection churn as a traffic scenario: per-request lifecycle."""
    return Scenario(
        name="shortconn",
        description="closed-loop per-request churn (connect/req/resp/close)",
        server_port=80,
        classes=[
            TrafficClass(
                name="churn",
                request=Fixed(request_bytes),
                response=Fixed(request_bytes),
                lifecycle=PER_REQUEST,
                connections=min(concurrency, connections),
                transactions=connections,
            )
        ],
    )


def run_connection_churn(
    connections: int = 10,
    request_bytes: int = 64,
    concurrency: int = 4,
    testbed: Optional[Testbed] = None,
    max_time_s: float = 30.0,
) -> ChurnResult:
    """Run ``connections`` short transactions, ``concurrency`` at a time.

    A thin preset over :mod:`repro.traffic`'s per-request lifecycle:
    every transaction allocates a fresh flow (new ports, new TCB, new
    cuckoo entries) and fully tears it down, so flow IDs, CAM slots and
    accept queues must all recycle correctly.  A transaction counts only
    once both directions have vanished from the engines — TIME_WAIT
    lingering included.
    """
    result = run_scenario(
        churn_preset(connections, request_bytes, concurrency),
        testbed=testbed,
        run_time_s=max_time_s,
        raise_on_incomplete=True,
    )
    metrics = result.classes["churn"]
    return ChurnResult(metrics.completed, result.elapsed_s, metrics.lifecycle)
