"""The whole repo must lint clean: simlint gates src/ in CI."""

import json
import os

from repro.__main__ import main
from repro.check import lint_paths

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestCleanTree:
    def test_src_tree_has_no_findings(self):
        result = lint_paths([SRC])
        assert result.findings == [], result.render()
        assert result.files_checked > 50

    def test_json_artifact_round_trips(self, tmp_path, capsys):
        result = lint_paths([SRC])
        out = tmp_path / "findings.json"
        assert main(["check", "lint", SRC, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["findings"] == []
        assert payload["files_checked"] == result.files_checked
