"""Unit tests for the cross-engine accuracy harness."""

from repro.analysis.accuracy import compare_engines


class TestCompareEngines:
    def test_fig8_all_agree(self, fig8):
        report = compare_engines(fig8)
        assert report.all_agree
        assert set(report.results) == {"faithful", "parallel", "global-traversal"}
        assert all(report.arc_agreement.values())
        assert len(report.group_agreement) == 3  # all pairs

    def test_render(self, fig8):
        text = compare_engines(fig8).render()
        assert "OK" in text
        assert "MISMATCH" not in text
        assert "faithful" in text

    def test_engine_subset(self, fig6):
        report = compare_engines(fig6, engines=("faithful", "global-traversal"))
        assert set(report.results) == {"faithful", "global-traversal"}
        assert report.all_agree

    def test_oracle_arcs_populated(self, fig8):
        report = compare_engines(fig8, engines=("parallel",))
        assert report.oracle_arcs == {("C3", "C5"), ("C5", "C6"), ("C7", "C8")}
