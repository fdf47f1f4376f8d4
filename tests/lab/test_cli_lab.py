"""The ``python -m repro lab`` subcommands, driven through ``main``."""

import pytest

from .._cli import main


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "lab.sqlite")


class TestLabCli:
    def test_bare_lab_prints_usage(self, capsys):
        assert main(["lab"]) == 2
        assert "lab {run,status,retry,export,list}" in capsys.readouterr().out

    def test_list_shows_grids_and_point_counts(self, capsys):
        assert main(["lab", "list"]) == 0
        out = capsys.readouterr().out
        assert "ablation-matrix" in out
        assert "exhibits" in out
        assert "12" in out  # the matrix point count

    def test_run_requires_a_grid_name(self, capsys):
        assert main(["lab", "run"]) == 2
        assert "available" in capsys.readouterr().err

    def test_run_rejects_unknown_grid(self, capsys):
        assert main(["lab", "run", "no-such-grid"]) == 2
        assert "unknown grid" in capsys.readouterr().err

    def test_run_status_export_roundtrip(self, db, capsys, tmp_path):
        assert main(
            ["lab", "run", "ablation-tcb-cache", "--quick", "--db", db]
        ) == 0
        assert main(["lab", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "ablation-tcb-cache" in out
        row = [l for l in out.splitlines() if l.startswith("ablation-tcb-cache")][0]
        assert row.split()[1:] == ["0", "0", "3", "0", "3"]

        # markdown export to stdout
        assert main(["lab", "export", "ablation-tcb-cache", "--db", db]) == 0
        md = capsys.readouterr().out
        assert md.count("|") > 10
        assert "swap_rate" in md

        # CSV export to a file
        csv_path = str(tmp_path / "out.csv")
        assert main(
            ["lab", "export", "ablation-tcb-cache", "--db", db, "--csv", csv_path]
        ) == 0
        with open(csv_path) as handle:
            content = handle.read()
        assert content.startswith("run_id,")
        assert content.count("\n") == 4  # header + 3 points

    def test_rerun_is_cached(self, db, capsys):
        assert main(["lab", "run", "ablation-tcb-cache", "--quick", "--db", db]) == 0
        assert main(["lab", "run", "ablation-tcb-cache", "--quick", "--db", db]) == 0

    def test_status_on_empty_store(self, db, capsys):
        assert main(["lab", "status", "--db", db]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_retry_resets_counts(self, db, capsys):
        assert main(["lab", "retry", "--db", db]) == 0
        assert "reset 0 error run(s)" in capsys.readouterr().out


class TestVersionFlag:
    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out
