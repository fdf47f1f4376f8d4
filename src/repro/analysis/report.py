"""Regenerate the paper's exhibits: the machinery behind ``repro report``.

Usage::

    python -m repro report            # everything (minutes)
    python -m repro report figure8    # one exhibit
    python -m repro report --quick    # reduced sample counts

The same machinery backs EXPERIMENTS.md: each section shows the rows the
paper's exhibit reports plus the paper-vs-measured checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .experiments import ALL_EXPERIMENTS
from .reporting import ExperimentResult

#: Drivers accepting a ``quick`` keyword (the slow, sampled ones).
_QUICKABLE = {"figure10", "figure12", "figure14", "figure16b", "table2"}

#: Stable presentation order (paper order): the registry's own.
EXHIBIT_ORDER = list(ALL_EXPERIMENTS)


def run_all(
    names: Optional[List[str]] = None, quick: bool = False
) -> Dict[str, ExperimentResult]:
    """Run the selected exhibits; returns name -> result.

    Every name is looked up before the first driver runs, so an unknown
    exhibit raises ``UnknownNameError`` at once, not minutes in.
    """
    selected = names if names else EXHIBIT_ORDER
    drivers = [(name, ALL_EXPERIMENTS[name]) for name in selected]
    results: Dict[str, ExperimentResult] = {}
    for name, driver in drivers:
        if quick and name in _QUICKABLE:
            results[name] = driver(quick=True)
        else:
            results[name] = driver()
    return results
