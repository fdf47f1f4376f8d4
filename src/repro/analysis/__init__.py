"""Experiment harness: per-exhibit drivers, micro-benchmarks, reporting."""

from .experiments import ALL_EXPERIMENTS
from .microbench import (
    HeaderRateDesign,
    measure_baseline_event_rate,
    measure_fpc_event_rate,
    measure_header_rate,
)
from .reporting import ExperimentResult, PaperCheck, render, render_table

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "HeaderRateDesign",
    "PaperCheck",
    "measure_baseline_event_rate",
    "measure_fpc_event_rate",
    "measure_header_rate",
    "render",
    "render_table",
]
