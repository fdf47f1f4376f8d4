"""ASCII plot rendering."""

import pytest

from repro.analysis.plots import (
    EXHIBIT_PLOTS,
    bar_chart,
    line_plot,
)


class TestLinePlot:
    def test_single_series(self):
        text = line_plot({"s": [(0, 0), (5, 10), (10, 20)]})
        assert "*" in text
        assert "s" in text.splitlines()[0]  # legend

    def test_multiple_series_distinct_markers(self):
        text = line_plot(
            {"a": [(0, 1), (1, 2)], "b": [(0, 2), (1, 1)]}
        )
        assert "*" in text and "o" in text

    def test_log_axes(self):
        text = line_plot(
            {"s": [(1, 1), (100, 100), (10000, 10000)]},
            logx=True, logy=True,
        )
        assert "1e" in text

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            line_plot({})

    def test_title_and_labels(self):
        text = line_plot(
            {"s": [(0, 1), (1, 2)]}, title="My Plot", x_label="xs", y_label="ys"
        )
        assert "My Plot" in text
        assert "xs" in text
        assert "ys" in text

    def test_flat_series(self):
        # Degenerate range (all same y) must not crash.
        text = line_plot({"s": [(0, 5), (1, 5), (2, 5)]})
        assert "*" in text


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart(["a", "b"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])

    def test_zero_values(self):
        text = bar_chart(["x", "y"], [0.0, 3.0])
        assert "0" in text


class TestExhibitPlots:
    @pytest.mark.parametrize("name", sorted(EXHIBIT_PLOTS))
    def test_every_registered_plot_renders(self, name):
        from repro.analysis.report import run_all

        result = run_all([name], quick=True)[name]
        text = EXHIBIT_PLOTS[name](result)
        assert len(text.splitlines()) > 3
