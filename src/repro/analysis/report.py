"""Regenerate the paper's exhibits: the machinery behind ``repro report``.

Usage::

    python -m repro report            # every exhibit, full fidelity
    python -m repro report figure8    # one exhibit
    python -m repro report --quick    # reduced sample counts

EXPERIMENTS.md holds the full-fidelity stdout between its report
markers, and `tests/analysis/test_experiments_doc.py` fails when the two
differ.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from .experiments import ALL_EXPERIMENTS
from .plots import EXHIBIT_PLOTS
from .reporting import ExperimentResult, render

#: Drivers accepting a ``quick`` keyword (the slow, sampled ones).
_QUICKABLE = {"figure10", "figure12", "figure14", "figure16b"}

#: Exhibits that are a view of another's run: name -> the exhibit whose
#: result their driver takes.
_READS = {"table2": "figure16b"}

#: Stable presentation order (paper order): the registry's own.
EXHIBIT_ORDER = list(ALL_EXPERIMENTS)


def run_all(
    names: Optional[List[str]] = None, quick: bool = False
) -> Dict[str, ExperimentResult]:
    """Run the selected exhibits; returns name -> result.

    Every name is looked up before the first driver runs, so an unknown
    exhibit raises ``UnknownNameError`` at once, not minutes in.  Each
    exhibit runs once: one that another reads (Table 2 reads Figure
    16b's run) is run for it under the same ``quick``, and returned
    only if it was selected too.
    """
    selected = names if names else EXHIBIT_ORDER
    # Each driver once, an exhibit another reads ahead of its reader.
    drivers: Dict[str, Callable[..., ExperimentResult]] = {}
    for name in selected:
        if name in _READS:
            source = _READS[name]
            drivers.setdefault(source, ALL_EXPERIMENTS[source])
        drivers[name] = ALL_EXPERIMENTS[name]
    runs: Dict[str, ExperimentResult] = {}
    for name, driver in drivers.items():
        args = [runs[_READS[name]]] if name in _READS else []
        kwargs = {"quick": True} if quick and name in _QUICKABLE else {}
        runs[name] = driver(*args, **kwargs)
    return {name: runs[name] for name in selected}


def render_report(results: Mapping[str, ExperimentResult]) -> str:
    """The report ``repro report`` prints: each exhibit's table, checks,
    notes and ASCII plot, then a count of the exhibits with a check out
    of tolerance.  A pure function of the results (no wall time), with
    no trailing blanks, so EXPERIMENTS.md can hold it byte for byte."""
    blocks = []
    for name, result in results.items():
        blocks.append(render(result))
        plotter = EXHIBIT_PLOTS.get(name)
        if plotter is not None:
            blocks.append(plotter(result))
    failing = sum(not result.all_checks_pass() for result in results.values())
    blocks.append(f"{len(results)} exhibits; {failing} with out-of-tolerance checks")
    return "\n".join(line.rstrip() for line in "\n\n".join(blocks).splitlines())
