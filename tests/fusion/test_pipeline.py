"""Unit tests for the multi-network fusion pipeline (Fig. 5)."""

import pytest

from repro.datagen.cases import case1_source_graphs, fig7_source_graphs
from repro.errors import FusionError
from repro.fusion.pipeline import fuse
from repro.model.colors import EColor, InfluenceKind, VColor
from repro.model.entities import EntityRegistry
from repro.model.homogeneous import (
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)


def fuse_fig7():
    src = fig7_source_graphs()
    return fuse(src.interdependence, src.influence, src.investment, src.trading)


class TestFig7Fusion:
    def test_counts_match_fig8(self):
        result = fuse_fig7()
        stats = result.tpiin.stats()
        # Fig. 8: 7 person nodes (2 syndicates + 5 persons), 8 companies,
        # 14 influence arcs, 5 trading arcs.
        assert stats.persons == 7
        assert stats.companies == 8
        assert stats.influence_arcs == 14
        assert stats.trading_arcs == 5

    def test_syndicates_created(self):
        result = fuse_fig7()
        members = {frozenset(s.members) for s in result.person_syndicates.values()}
        assert members == {frozenset({"L6", "LB"}), frozenset({"B5", "B6"})}

    def test_node_map_resolves_merged_persons(self):
        result = fuse_fig7()
        tpiin = result.tpiin
        l1 = tpiin.node_map["L6"]
        assert tpiin.node_map["LB"] == l1
        assert tpiin.graph.has_arc(l1, "C1", EColor.INFLUENCE)
        assert tpiin.graph.has_arc(l1, "C2", EColor.INFLUENCE)
        assert tpiin.graph.has_arc(l1, "C4", EColor.INFLUENCE)

    def test_stage_report(self):
        result = fuse_fig7()
        report = result.stage_report()
        for stage in ("G12", "G12'", "GB", "G123", "TPIIN"):
            assert stage in report

    def test_intermediates_kept_on_request(self):
        src = fig7_source_graphs()
        result = fuse(
            src.interdependence,
            src.influence,
            src.investment,
            src.trading,
            keep_intermediates=True,
        )
        assert set(result.intermediates) == {"G12'", "GB", "G123"}
        # G12' has no investment arcs yet; GB does.
        assert result.intermediates["G12'"].number_of_arcs() < result.intermediates[
            "GB"
        ].number_of_arcs()

    def test_registry_receives_syndicates(self):
        src = fig7_source_graphs()
        registry = EntityRegistry()
        result = fuse(
            src.interdependence,
            src.influence,
            src.investment,
            src.trading,
            registry=registry,
        )
        assert len(registry.syndicates) == 2
        syndicate_id = result.tpiin.node_map["B5"]
        assert registry.expand(syndicate_id) == frozenset({"B5", "B6"})


class TestCase1Fusion:
    def test_brothers_merge_and_group_structure_forms(self):
        src = case1_source_graphs()
        result = fuse(src.interdependence, src.influence, src.investment, src.trading)
        tpiin = result.tpiin
        merged = tpiin.node_map["L1"]
        assert tpiin.node_map["L2"] == merged
        assert tpiin.graph.has_arc(merged, "C1", EColor.INFLUENCE)
        assert tpiin.graph.has_arc(merged, "C2", EColor.INFLUENCE)
        assert tpiin.graph.has_arc("C1", "C3", EColor.INFLUENCE)


class TestSccPath:
    def build_sources(self):
        g1 = InterdependenceGraph()
        g2 = InfluenceGraph()
        g2.add_influence("p1", "a", InfluenceKind.CEO_OF, legal_person=True)
        g2.add_influence("p2", "b", InfluenceKind.CEO_OF, legal_person=True)
        g2.add_influence("p3", "c", InfluenceKind.CEO_OF, legal_person=True)
        gi = InvestmentGraph()
        gi.add_investment("a", "b")
        gi.add_investment("b", "a")  # mutual investment cycle
        gi.add_investment("b", "c")
        g4 = TradingGraph()
        g4.add_trade("a", "b")  # lands inside the SCS
        g4.add_trade("a", "c")
        return g1, g2, gi, g4

    def test_intra_scs_trade_set_aside(self):
        result = fuse(*self.build_sources())
        tpiin = result.tpiin
        assert tpiin.intra_scs_trades == [("a", "b")]
        assert len(tpiin.scs_subgraphs) == 1
        scs_id = next(iter(tpiin.scs_subgraphs))
        assert tpiin.scs_members[scs_id] == frozenset({"a", "b"})
        # The other trading arc is remapped to the syndicate.
        assert tpiin.graph.has_arc(scs_id, "c", EColor.TRADING)
        tpiin.validate()

    def test_influence_reattached_to_syndicate(self):
        result = fuse(*self.build_sources())
        tpiin = result.tpiin
        scs_id = next(iter(tpiin.scs_subgraphs))
        assert tpiin.graph.has_arc("p1", scs_id, EColor.INFLUENCE)
        assert tpiin.graph.has_arc("p2", scs_id, EColor.INFLUENCE)
        assert tpiin.graph.node_color(scs_id) == VColor.COMPANY


class TestValidationGates:
    def test_unknown_company_in_trading_rejected(self):
        g1 = InterdependenceGraph()
        g2 = InfluenceGraph()
        g2.add_influence("p", "a", InfluenceKind.CEO_OF, legal_person=True)
        gi = InvestmentGraph()
        g4 = TradingGraph()
        g4.add_trade("a", "mystery")
        with pytest.raises(FusionError, match="mystery"):
            fuse(g1, g2, gi, g4)

    def test_validation_can_be_skipped(self):
        g1 = InterdependenceGraph()
        g2 = InfluenceGraph()
        g2.add_influence("p", "a", InfluenceKind.CEO_OF, legal_person=True)
        gi = InvestmentGraph()
        g4 = TradingGraph()
        g4.add_trade("a", "mystery")
        result = fuse(g1, g2, gi, g4, validate_inputs=False)
        assert result.tpiin.graph.has_node("mystery")

    def test_skipped_validation_adds_unknown_trading_endpoints_as_companies(self):
        g2 = InfluenceGraph()
        g2.add_influence("p", "a", InfluenceKind.CEO_OF, legal_person=True)
        g4 = TradingGraph()
        for seller, buyer in [("a", "mystery"), ("ghost", "a"), ("ghost", "mystery")]:
            g4.add_trade(seller, buyer)
        graph = fuse(
            InterdependenceGraph(), g2, InvestmentGraph(), g4, validate_inputs=False
        ).tpiin.graph
        assert list(graph.nodes()) == ["p", "a", "mystery", "ghost"]
        assert graph.node_color("mystery") == graph.node_color("ghost") == VColor.COMPANY
        assert list(graph.successors("ghost")) == ["a", "mystery"]
        assert graph.number_of_arcs(EColor.TRADING) == 3

    def test_skipped_validation_keeps_a_person_off_a_trading_arc(self):
        g2 = InfluenceGraph()
        g2.add_influence("p", "a", InfluenceKind.CEO_OF, legal_person=True)
        g4 = TradingGraph()
        g4.add_trade("a", "p")
        with pytest.raises(ValueError, match="already has color"):
            fuse(InterdependenceGraph(), g2, InvestmentGraph(), g4, validate_inputs=False)
