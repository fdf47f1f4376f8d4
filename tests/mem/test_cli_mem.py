"""python -m repro mem — handler exit codes and CSV output."""

from .._cli import main


class TestMemCli:
    def test_no_subcommand_usage(self):
        assert main(["mem"]) == 2

    def test_stats_exits_zero_and_prints_policy_win(self, capsys):
        assert main(["mem", "stats", "--events", "4000"]) == 0
        out = capsys.readouterr().out
        assert "recall_at_k" in out
        assert "predictive avoids" in out

    def test_sweep_table_names_best_geometry(self, capsys):
        assert main(["mem", "sweep", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "512x1:direct" in out

    def test_sweep_csv_stdout_deterministic(self, capsys):
        argv = ["mem", "sweep", "--quick", "--csv", "-"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        header = first.splitlines()[0]
        assert "dram_charges" in header

    def test_sweep_csv_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["mem", "sweep", "--quick", "--csv", str(path)]) == 0
        assert path.read_text().count("\n") == 21  # header + 20 rows

    def test_stats_geometry_flag(self, capsys):
        assert main(
            ["mem", "stats", "--events", "2000", "--geometry", "64x4:lru"]
        ) == 0
        assert "64x4:lru" in capsys.readouterr().out
