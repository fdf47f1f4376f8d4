"""Table 2: target situations of F4T's solutions, with measured evidence."""

from repro.analysis.experiments import run_figure16b, run_table2

from conftest import run_exhibit


def test_table2_solutions(benchmark):
    run_exhibit(benchmark, lambda: run_table2(run_figure16b(quick=True)))
