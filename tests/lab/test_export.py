"""CSV / Markdown / status exports of the run store."""

import csv
import io

import pytest

from repro.lab.export import export_csv, export_markdown, export_text, status_table
from repro.lab.grid import ExperimentGrid
from repro.lab.runner import run_grid
from repro.lab.store import RunStore


@pytest.fixture
def populated(tmp_path):
    grid = ExperimentGrid(
        name="exp",
        driver="tests.lab._drivers:record_point",
        domains={"x": [2, 3]},
        base={"log_path": str(tmp_path / "log.txt")},
    )
    db = str(tmp_path / "runs.sqlite")
    run_grid(grid, db)
    with RunStore(db) as store:
        yield store


class TestCsv:
    def test_columns_and_values(self, populated):
        rows = list(csv.DictReader(io.StringIO(export_csv(populated))))
        assert len(rows) == 2
        for row in rows:
            assert row["experiment"] == "exp"
            assert row["status"] == "done"
            assert float(row["square"]) == float(row["x"]) ** 2
            assert row["git_sha"]
            assert row["calibration_hash"]
            assert row["wall_time_s"]

    def test_experiment_filter(self, populated):
        assert export_csv(populated, experiment="other").count("\n") == 1  # header only

    def test_status_filter(self, populated):
        """The export shows every state; filtering by one is the store's."""
        assert populated.records(status="error") == []
        rows = list(csv.DictReader(io.StringIO(export_csv(populated))))
        assert {row["status"] for row in rows} == {"done"}


class TestMarkdown:
    def test_pipe_table_with_aligned_columns(self, populated):
        lines = export_markdown(populated).splitlines()
        assert len(lines) == 4  # header, separator, 2 rows
        assert all(line.startswith("| ") and line.endswith(" |") for line in lines)
        assert set(lines[1].replace("|", "").strip()) == {"-", " "}
        assert len({len(line) for line in lines}) == 1  # aligned
        assert "square" in lines[0]

    def test_text_table(self, populated):
        text = export_text(populated)
        assert "run_id" in text
        assert "done" in text


class TestStatusTable:
    def test_counts_per_experiment(self, populated):
        table = status_table(populated)
        assert "exp" in table
        assert "pending" in table
        row = [line for line in table.splitlines() if line.split()[:1] == ["exp"]][0]
        # pending running done error total
        assert row.split()[1:] == ["0", "0", "2", "0", "2"]

    def test_total_row_appears_with_multiple_experiments(self, tmp_path, populated):
        grid = ExperimentGrid(
            name="second",
            driver="tests.lab._drivers:record_point",
            domains={"x": [1]},
            base={"log_path": str(tmp_path / "log2.txt")},
        )
        populated.sync_grid(grid)
        table = status_table(populated)
        assert "TOTAL" in table
        total_row = [l for l in table.splitlines() if l.startswith("TOTAL")][0]
        assert total_row.split()[1:] == ["1", "0", "2", "0", "3"]
