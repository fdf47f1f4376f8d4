"""The check CLI: exit codes, finding output, JSON artifacts."""

import json

from .._cli import main

BAD_SNIPPET = "import time\n\n\ndef stamp(pkt):\n    pkt.t = time.time()\n"


def run_check(argv, capsys):
    code = main(["check"] + argv)
    return code, capsys.readouterr().out


def seeded_violation(tmp_path):
    """A file whose path puts it in the engine layer, with a wall-clock
    read simlint must flag."""
    bad_dir = tmp_path / "repro" / "engine"
    bad_dir.mkdir(parents=True)
    bad = bad_dir / "bad.py"
    bad.write_text(BAD_SNIPPET)
    return bad


class TestLintCommand:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "repro" / "engine"
        good.mkdir(parents=True)
        (good / "ok.py").write_text("x = 1\n")
        code, out = run_check(["lint", str(tmp_path)], capsys)
        assert code == 0
        assert "0 findings" in out

    def test_seeded_violation_names_rule_and_location(self, tmp_path, capsys):
        bad = seeded_violation(tmp_path)
        code, out = run_check(["lint", str(tmp_path)], capsys)
        assert code == 1
        assert "F4T002" in out
        assert f"{bad}:5:" in out  # file:line of the time.time() call

    def test_json_artifact(self, tmp_path, capsys):
        seeded_violation(tmp_path)
        artifact = tmp_path / "findings.json"
        code, _ = run_check(
            ["lint", str(tmp_path), "--json", str(artifact)], capsys
        )
        assert code == 1
        payload = json.loads(artifact.read_text())
        assert payload["findings"][0]["rule"] == "F4T002"
        assert payload["findings"][0]["line"] == 5

    def test_list_rules(self, capsys):
        code, out = run_check(["lint", "--list-rules"], capsys)
        assert code == 0
        for rule_id in ("F4T001", "F4T002", "F4T003", "F4T004", "F4T005",
                        "F4T006", "F4T007", "F4T008", "F4T009", "F4T010",
                        "F4T011"):
            assert rule_id in out

    def test_json_summary_block(self, tmp_path, capsys):
        seeded_violation(tmp_path)
        artifact = tmp_path / "findings.json"
        run_check(["lint", str(tmp_path), "--json", str(artifact)], capsys)
        summary = json.loads(artifact.read_text())["summary"]
        assert summary["by_rule"] == {"F4T002": 1}
        assert summary["total"] == 1
        assert summary["suppressed"] == 0
        assert summary["files_checked"] == 1


class TestRaceCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out = run_check(["race", "--seed", "3"], capsys)
        assert code == 0
        assert "0 violations" in out


class TestLockstepCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        artifact = tmp_path / "lockstep.json"
        code, out = run_check(
            ["lockstep", "--json", str(artifact)], capsys
        )
        assert code == 0
        assert "0 violations" in out
        payload = json.loads(artifact.read_text())
        assert payload["findings"] == []
        assert payload["checks_run"] > 0


class TestAllCommand:
    def test_gate_on_repo_exits_zero(self, tmp_path, capsys, src_lint):
        artifact = tmp_path / "combined.json"
        code, out = run_check(
            ["all", "--seed", "3", "--json", str(artifact)], capsys
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["lint"]["findings"] == []
        # The CLI lints the same files the session index holds.
        assert payload["lint"]["files_checked"] == src_lint.files_checked
        assert payload["race"]["findings"] == []
        assert payload["lockstep"]["findings"] == []
        assert payload["lockstep"]["checks_run"] > 0

    def test_gate_fails_on_seeded_violation(self, tmp_path, capsys):
        seeded_violation(tmp_path)
        code, out = run_check(["all", str(tmp_path), "--seed", "3"], capsys)
        assert code == 1
        assert "F4T002" in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _ = run_check([], capsys)
        assert code == 2
