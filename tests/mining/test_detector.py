"""Unit tests for Algorithm 1 end-to-end detection."""

import pytest

from repro.datagen.cases import FIG10_EXPECTED_GROUPS
from repro.errors import MiningError
from repro.mining.detector import detect
from repro.mining.groups import GroupKind
from repro.mining.incremental import IncrementalDetector


class TestPaperFixtures:
    def test_fig8_groups(self, fig8):
        result = detect(fig8)
        got = {(frozenset(map(str, g.members)), str(g.antecedent)) for g in result.groups}
        assert got == set(FIG10_EXPECTED_GROUPS)
        assert result.simple_group_count == 3
        assert result.complex_group_count == 0
        assert result.pattern_trail_count == 15

    def test_fig8_suspicious_arcs(self, fig8):
        result = detect(fig8)
        assert result.suspicious_trading_arcs == {
            ("C3", "C5"),
            ("C5", "C6"),
            ("C7", "C8"),
        }
        assert result.total_trading_arcs == 5
        assert result.suspicious_arc_share == pytest.approx(0.6)

    def test_fig6(self, fig6):
        result = detect(fig6)
        assert result.suspicious_trading_arcs == {("C2", "C3")}
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.trading_trail == ("P1", "C1", "C2", "C3")
        assert group.support_trail == ("P1", "C3")

    def test_case1(self, case1):
        result = detect(case1)
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.antecedent == "L'"
        assert group.members == frozenset({"L'", "C1", "C2", "C3"})
        assert group.trading_arc == ("C3", "C2")
        assert group.is_simple

    def test_case2_company_antecedent(self, case2):
        result = detect(case2)
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.antecedent == "C4"
        assert group.members == frozenset({"C4", "C5", "C6"})

    def test_case3(self, case3):
        result = detect(case3)
        assert len(result.groups) == 1
        assert result.groups[0].members == frozenset({"B", "C7", "C8"})


class TestResultAccounting:
    def test_summary_text(self, fig8):
        summary = detect(fig8).summary()
        assert "groups=3" in summary
        assert "suspicious_arcs=3/5" in summary

    def test_groups_for_arc(self, fig8):
        result = detect(fig8)
        groups = result.groups_for_arc(("C3", "C5"))
        assert len(groups) == 1
        assert groups[0].antecedent == "L1"
        assert result.groups_for_arc(("C8", "C4")) == []

    @pytest.mark.parametrize("engine", ["faithful", "parallel"])
    def test_groups_for_arc_index_equals_the_scan(self, fig8, small_province_tpiin, engine):
        for tpiin in (fig8, small_province_tpiin):
            result = detect(tpiin, engine=engine)
            arcs = [g.trading_arc for g in result.groups] + [("C8", "C4"), ("nobody", "C1")]
            for arc in arcs:
                scan = [g for g in result.groups if g.trading_arc == arc]
                got = result.groups_for_arc(arc)
                assert len(got) == len(scan)
                assert all(a is b for a, b in zip(got, scan))
            # Callers own the returned list: editing it leaves the index.
            arc = arcs[0]
            result.groups_for_arc(arc).clear()
            assert len(result.groups_for_arc(arc)) == sum(
                g.trading_arc == arc for g in result.groups
            )

    def test_kind_counts(self, fig8):
        counts = detect(fig8).kind_counts()
        assert counts[GroupKind.MATCHED] == 3

    def test_sub_results(self, fig8):
        result = detect(fig8)
        assert len(result.sub_results) == 1
        sub = result.sub_results[0]
        assert sub.pattern_trail_count == 15
        assert sub.suspicious_arcs == result.suspicious_trading_arcs

    def test_unknown_engine(self, fig8):
        with pytest.raises(MiningError, match="engine"):
            detect(fig8, engine="quantum")

    def test_write_files(self, fig8, tmp_path):
        result = detect(fig8)
        paths = result.write_files(tmp_path)
        assert len(paths) == 2
        group_file = next(p for p in paths if "susGroup" in p.name)
        content = group_file.read_text()
        assert "L1" in content
        trade_file = next(p for p in paths if "susTrade" in p.name)
        assert "C3 -> C5" in trade_file.read_text()


class TestCircleAndScs:
    def test_circle_detection(self):
        from repro.fusion.tpiin import TPIIN

        t = TPIIN.build(
            persons=["a"],
            companies=["c4", "c5"],
            influence=[("a", "c4"), ("c4", "c5")],
            trading=[("c5", "c4")],
        )
        result = detect(t)
        circles = [g for g in result.groups if g.kind is GroupKind.CIRCLE]
        assert len(circles) == 1
        assert circles[0].trading_trail == ("c4", "c5", "c4")
        assert ("c5", "c4") in result.suspicious_trading_arcs

    def test_scs_groups_included(self):
        from repro.fusion.pipeline import fuse
        from repro.model.colors import InfluenceKind
        from repro.model.homogeneous import (
            InfluenceGraph,
            InterdependenceGraph,
            InvestmentGraph,
            TradingGraph,
        )

        g2 = InfluenceGraph()
        g2.add_influence("p1", "a", InfluenceKind.CEO_OF, legal_person=True)
        g2.add_influence("p2", "b", InfluenceKind.CEO_OF, legal_person=True)
        gi = InvestmentGraph()
        gi.add_investment("a", "b")
        gi.add_investment("b", "a")
        g4 = TradingGraph()
        g4.add_trade("a", "b")
        tpiin = fuse(InterdependenceGraph(), g2, gi, g4).tpiin
        result = detect(tpiin)
        scs = [g for g in result.groups if g.kind is GroupKind.SCS]
        assert len(scs) == 1
        assert scs[0].trading_arc == ("a", "b")
        assert scs[0].support_trail == ("a", "b")  # direct investment witness
        assert ("a", "b") in result.suspicious_trading_arcs
        assert result.total_trading_arcs == 1


class TestSubReport:
    def test_faithful_sub_report(self, fig8):
        text = detect(fig8).render_sub_report()
        assert "subTPIIN" in text
        assert "groups" in text

    def test_incremental_engine_has_no_sub_data(self, fig8):
        text = IncrementalDetector(fig8).result().render_sub_report()
        assert "did not segment" in text

    def test_truncation(self, small_province_tpiin):
        text = detect(small_province_tpiin).render_sub_report(max_rows=2)
        assert "more subTPIINs" in text


@pytest.mark.parametrize(
    "fixture", ["fig8", "case1", "case2", "case3", "small_province_tpiin"]
)
def test_simple_and_complex_counts_partition_the_groups(fixture, request):
    tpiin = request.getfixturevalue(fixture)
    results = [
        detect(tpiin, engine="faithful"),
        detect(tpiin, engine="parallel"),
        IncrementalDetector(tpiin).result(),
    ]
    for result in results:
        assert result.simple_group_count + result.complex_group_count == result.group_count
        assert result.complex_group_count == sum(g.is_complex for g in result.groups)
