"""repro.traffic — scenario-driven traffic generation and load testing.

Declarative :class:`Scenario` objects compose arrival processes, size
distributions and connection lifecycles from one top-level seed; the
:class:`LoadEngine` drives them open-loop over the functional two-engine
testbed, measuring offered vs. achieved load, goodput and per-class latency
percentiles.  ``python -m repro traffic {list,run,sweep}`` is the CLI;
``sweep`` runs the ``traffic-load`` lab grid and marks the latency knee
(:func:`detect_knee`).
"""

from .arrivals import (
    ArrivalProcess,
    FlashCrowd,
    OnOffBursts,
    Poisson,
)
from .engine import ClassMetrics, LoadEngine, ScenarioResult, run_scenario
from .scenario import (
    PER_REQUEST,
    PERSISTENT,
    Impairments,
    Request,
    Scenario,
    TrafficClass,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from .sizes import Fixed, SizeDistribution, Zipf
from .sweep import detect_knee

__all__ = [
    "ArrivalProcess",
    "Poisson",
    "OnOffBursts",
    "FlashCrowd",
    "SizeDistribution",
    "Fixed",
    "Zipf",
    "PERSISTENT",
    "PER_REQUEST",
    "TrafficClass",
    "Impairments",
    "Request",
    "Scenario",
    "register_scenario",
    "available_scenarios",
    "get_scenario",
    "ClassMetrics",
    "ScenarioResult",
    "LoadEngine",
    "run_scenario",
    "detect_knee",
]
