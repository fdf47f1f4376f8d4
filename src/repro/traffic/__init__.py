"""repro.traffic — scenario-driven traffic generation and load testing.

Declarative :class:`Scenario` objects compose arrival processes, size
distributions and connection lifecycles from one top-level seed; the
:class:`LoadEngine` drives them open-loop over the functional two-engine
testbed (or the calibrated model via :func:`run_scenario_model`),
measuring offered vs. achieved load, goodput and per-class latency
percentiles.  ``python -m repro traffic {list,run,sweep}`` is the CLI;
``sweep`` runs the ``traffic-load`` lab grid and marks the latency knee
(:func:`detect_knee`).
"""

from .arrivals import (
    ArrivalProcess,
    Deterministic,
    FlashCrowd,
    OnOffBursts,
    Poisson,
)
from .engine import ClassMetrics, LoadEngine, ScenarioResult, run_scenario
from .model import run_scenario_model
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
from .sizes import Fixed, Lognormal, Pareto, SizeDistribution, Zipf
from .sweep import detect_knee

__all__ = [
    "ArrivalProcess",
    "Deterministic",
    "Poisson",
    "OnOffBursts",
    "FlashCrowd",
    "SizeDistribution",
    "Fixed",
    "Lognormal",
    "Pareto",
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
    "run_scenario_model",
    "detect_knee",
]
