"""Unit tests for the markdown audit report."""

from repro.analysis.audit_report import build_audit_report, write_audit_report
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector


class TestAuditReport:
    def test_fig8_report_sections(self, fig8):
        report = build_audit_report(fig8, detect(fig8))
        assert report.startswith("# Suspicious tax-evasion group audit")
        assert "## Network overview" in report
        assert "## Headline detection metrics" in report
        assert "## Distributions" in report
        assert "## Top 10 suspicious trading relationships" in report
        assert "C3 -> C5" in report
        assert "L1, C1, C3 -> C5" in report

    def test_custom_title_and_top(self, fig8):
        report = build_audit_report(
            fig8, detect(fig8), title="Zhejiang pilot", top=2
        )
        assert report.startswith("# Zhejiang pilot")
        assert "## Top 2" in report

    def test_includes_two_phase_section(
        self, small_province, small_province_tpiin
    ):
        from repro.ite.pipeline import run_two_phase
        from repro.ite.transactions import simulate_transactions
        from repro.mining.detector import detect

        result = detect(small_province_tpiin, engine="parallel")
        industry_of = {
            c.company_id: c.industry
            for c in small_province.registry.companies.values()
        }
        book = simulate_transactions(
            list(small_province_tpiin.trading_arcs()),
            result.suspicious_trading_arcs,
            industry_of,
        )
        two = run_two_phase(small_province_tpiin, book, msg_result=result)
        report = build_audit_report(
            small_province_tpiin, result, two_phase=two
        )
        assert "## ITE-phase outcome" in report
        assert "workload share" in report

    def test_write(self, fig8, tmp_path):
        path = write_audit_report(tmp_path / "audit.md", fig8, detect(fig8))
        assert path.exists()
        assert path.read_text().startswith("#")

    def test_count_only_result_skips_group_sections(self, fig8):
        from repro.fusion.tpiin import TPIIN

        untraded = TPIIN(graph=fig8.antecedent_graph())
        result = IncrementalDetector(untraded).result()
        assert result.groups == []
        report = build_audit_report(untraded, result)
        assert "## Distributions" not in report
        assert "simple suspicious groups" in report
