"""The whole repo must lint clean: simlint gates src/ in CI."""


class TestCleanTree:
    def test_src_tree_has_no_findings(self, src_lint):
        assert src_lint.findings == [], src_lint.render()
        assert src_lint.files_checked > 50
