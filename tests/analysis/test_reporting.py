"""Result rendering and paper-vs-measured checks."""

import pytest

from repro.analysis.reporting import (
    ExperimentResult,
    PaperCheck,
    format_value,
    render,
    render_csv,
    render_table,
    tabulate,
)


class TestPaperCheck:
    def test_within_tolerance_passes(self):
        assert PaperCheck(paper=100.0, measured=110.0, tolerance=0.2).passes

    def test_outside_tolerance_fails(self):
        assert not PaperCheck(paper=100.0, measured=150.0, tolerance=0.2).passes

    def test_ratio(self):
        assert PaperCheck(paper=50.0, measured=100.0).ratio == 2.0

    def test_zero_paper_value(self):
        assert PaperCheck(paper=0.0, measured=0.0).ratio == 1.0
        assert PaperCheck(paper=0.0, measured=1.0).ratio == float("inf")


class TestFormatting:
    def test_format_value(self):
        assert format_value(0.3456) == "0.35"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value(0) == "0"
        assert format_value("text") == "text"
        assert format_value(0.0) == "0"

    def test_render_table_alignment(self):
        table = render_table(["name", "value"], [("a", 1), ("long-name", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all("  " in line for line in lines[2:])

    def test_render_table_empty(self):
        table = render_table(["x"], [])
        assert "x" in table


class TestCsv:
    def test_tabulate_unions_columns_and_blanks_the_gaps(self):
        one_level = {"geometry": "512x1", "l0_hits": 7}
        two_level = {"geometry": "64x4/256x1", "l0_hits": 5, "l1_hits": 2}
        for records in ([one_level, two_level], [two_level, one_level]):
            columns, rows = tabulate(records)
            assert sorted(columns) == ["geometry", "l0_hits", "l1_hits"]
            by_geometry = {row[columns.index("geometry")]: row for row in rows}
            assert by_geometry["512x1"][columns.index("l1_hits")] == ""
            assert by_geometry["64x4/256x1"][columns.index("l1_hits")] == 2

    def test_tabulate_selects_and_orders_named_columns(self):
        columns, rows = tabulate([{"a": 1, "b": 2, "c": 3}], ["c", "a"])
        assert (columns, rows) == (["c", "a"], [[3, 1]])

    def test_floats_are_written_as_repr_not_display_format(self):
        text = render_csv(["p99_us", "n"], [[1234.5, 3], [0.1 + 0.2, 4]])
        assert text == "p99_us,n\n1234.5,3\n0.30000000000000004,4\n"
        assert format_value(1234.5) == "1.23e+03"  # what a cell used to lose

    def test_cells_with_commas_are_quoted(self):
        assert render_csv(["detail"], [["a,b"]]) == 'detail\n"a,b"\n'


class TestRender:
    def make_result(self):
        result = ExperimentResult(
            exhibit="Figure 99",
            title="A synthetic exhibit",
            columns=["a", "b"],
            rows=[(1, 2)],
            method="simulated",
        )
        result.check("anchor", paper=10.0, measured=10.5)
        result.notes.append("a note")
        return result

    def test_render_contains_everything(self):
        text = render(self.make_result())
        assert "Figure 99" in text
        assert "simulated" in text
        assert "anchor" in text
        assert "OK" in text
        assert "a note" in text

    def test_failed_check_marked(self):
        result = self.make_result()
        result.check("bad", paper=10.0, measured=100.0)
        assert "OFF" in render(result)
        assert not result.all_checks_pass()

    def test_all_checks_pass(self):
        assert self.make_result().all_checks_pass()
