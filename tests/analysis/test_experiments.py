"""Fast experiment drivers produce passing paper-vs-measured checks.

The slow exhibits (Figs 10, 12, 13, 14, 16b) run in
``test_measure_once.py`` (quick) and ``test_experiments_doc.py`` (full
fidelity); here the cheap ones run as ordinary tests plus structural
checks on the rest.
"""

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    run_figure1,
    run_figure2,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure11,
    run_figure15,
    run_figure16a,
    run_table1,
)
from repro.analysis.microbench import (
    HeaderRateDesign,
    measure_baseline_event_rate,
    measure_fpc_event_rate,
    measure_header_rate,
)


class TestFastExhibits:
    @pytest.mark.parametrize(
        "driver",
        [
            run_table1,
            run_figure1,
            run_figure2,
            run_figure7,
            run_figure8,
            run_figure9,
            run_figure11,
            run_figure16a,
        ],
    )
    def test_checks_pass(self, driver):
        result = driver()
        assert result.all_checks_pass(), {
            name: (check.paper, check.measured)
            for name, check in result.checks.items()
            if not check.passes
        }

    def test_figure15_flatness(self):
        result = run_figure15()
        assert result.all_checks_pass()
        f4t_column = [row[2] for row in result.rows]
        assert max(f4t_column) - min(f4t_column) <= 1.0  # Mev/s, flat

    def test_registry_covers_every_exhibit(self):
        expected = {
            "table1", "table2",
            "figure1", "figure2", "figure7", "figure8", "figure9",
            "figure10", "figure11", "figure12", "figure13", "figure14",
            "figure15", "figure16a", "figure16b",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestMicrobench:
    def test_baseline_anchor(self):
        rate = measure_baseline_event_rate(stall_cycles=17, cycles=5000)
        assert rate == pytest.approx(250e6 / 17, rel=0.02)

    def test_tonic_anchor(self):
        """w/o-RMW: the stalling design with no stall, at 100 MHz."""
        rate = measure_baseline_event_rate(stall_cycles=1, cycles=3000, freq_hz=100e6)
        assert rate == pytest.approx(100e6, rel=0.02)

    def test_fpc_anchor(self):
        assert measure_fpc_event_rate(cycles=4000) == pytest.approx(125e6, rel=0.02)

    def test_header_rate_rejects_bad_workload(self):
        with pytest.raises(ValueError):
            measure_header_rate(HeaderRateDesign.f4t(), "zigzag", 1e9, flows=8)

    def test_coalescing_lifts_bulk_only(self):
        bulk = measure_header_rate(
            HeaderRateDesign.one_fpc_coalescing(), "bulk", 900e6, flows=24, cycles=4000
        )
        rr = measure_header_rate(
            HeaderRateDesign.one_fpc_coalescing(), "rr", 900e6, flows=384, cycles=4000
        )
        assert bulk > 4 * rr
