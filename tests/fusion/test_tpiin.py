"""Unit tests for the TPIIN structure (Definition 1, Property 1)."""

import pytest

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import ValidationError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import DiGraph
from repro.model.colors import EColor, VColor


def per_arc_graph(persons, companies, influence, trading) -> DiGraph:
    """What :meth:`TPIIN.build` built before it added arcs per color."""
    graph = DiGraph()
    for person in persons:
        graph.add_node(person, VColor.PERSON)
    for company in companies:
        graph.add_node(company, VColor.COMPANY)
    for tail, head in influence:
        graph.add_arc(tail, head, EColor.INFLUENCE)
    for tail, head in trading:
        graph.add_arc(tail, head, EColor.TRADING)
    return graph


def fig6_lists():
    return (
        ["P1"],
        ["C1", "C2", "C3"],
        [("P1", "C1"), ("P1", "C3"), ("C1", "C2")],
        [("C2", "C3")],
    )


def province_lists():
    """A generated province's node and arc lists, plus a repeated arc and
    an arc to an undeclared node (created on demand, uncolored)."""
    dataset = generate_province(ProvinceConfig.small(companies=80, seed=5))
    tpiin = dataset.overlay_trading(dataset.antecedent_tpiin(), 0.03)
    influence = list(tpiin.influence_arcs())
    trading = list(tpiin.trading_arcs())
    return (
        list(tpiin.persons()),
        list(tpiin.companies()),
        influence + influence[:1],
        trading + [(trading[0][0], "C-undeclared")],
    )


class TestBuildAndViews:
    def test_build_and_stats(self, fig6):
        stats = fig6.stats()
        assert stats.persons == 1
        assert stats.companies == 3
        assert stats.influence_arcs == 3
        assert stats.trading_arcs == 1
        assert stats.nodes == 4
        assert stats.arcs == 4
        assert stats.average_node_degree == pytest.approx(1.0)

    def test_views(self, fig6):
        antecedent = fig6.antecedent_graph()
        assert antecedent.number_of_arcs() == 3
        assert antecedent.number_of_nodes() == 4  # all nodes kept
        trading = fig6.trading_graph()
        assert set(trading.arcs()) == {("C2", "C3", EColor.TRADING)}

    def test_node_iterators(self, fig6):
        assert set(fig6.persons()) == {"P1"}
        assert set(fig6.companies()) == {"C1", "C2", "C3"}
        assert set(fig6.trading_arcs()) == {("C2", "C3")}
        assert ("P1", "C1") in set(fig6.influence_arcs())

    def test_antecedent_roots(self, fig8):
        assert set(fig8.antecedent_roots()) == {
            "L1", "L2", "L3", "L4", "L5", "B1", "B2",
        }


class TestBuildOrder:
    @pytest.mark.parametrize("lists", [fig6_lists, province_lists])
    def test_build_equals_the_per_arc_build(self, lists):
        persons, companies, influence, trading = lists()
        built = TPIIN.build(
            persons=persons,
            companies=companies,
            influence=iter(influence),
            trading=iter(trading),
        ).graph
        expected = per_arc_graph(persons, companies, influence, trading)
        # Node insertion order fixes the component ordinals downstream.
        assert list(built.nodes()) == list(expected.nodes())
        assert [built.node_color(n) for n in built.nodes()] == [
            expected.node_color(n) for n in expected.nodes()
        ]
        assert list(built.arcs()) == list(expected.arcs())
        assert [list(built.predecessors(n)) for n in built.nodes()] == [
            list(expected.predecessors(n)) for n in expected.nodes()
        ]
        for color in (None, EColor.INFLUENCE, EColor.TRADING):
            assert built.number_of_arcs(color) == expected.number_of_arcs(color)


class TestValidation:
    def test_paper_fixtures_validate(self, fig6, fig8, case1, case2, case3):
        for tpiin in (fig6, fig8, case1, case2, case3):
            tpiin.validate()

    def test_person_with_indegree_rejected(self):
        t = TPIIN.build(
            persons=["p", "q"], companies=["c"], influence=[("p", "c")]
        )
        t.graph.add_arc("c", "q", EColor.INFLUENCE)
        with pytest.raises(ValidationError):
            t.validate()

    def test_trading_between_non_companies_rejected(self):
        t = TPIIN.build(persons=["p"], companies=["c"], influence=[("p", "c")])
        t.graph.add_arc("c", "p", EColor.TRADING)
        with pytest.raises(ValidationError):
            t.validate()

    def test_trading_from_person_rejected(self):
        t = TPIIN.build(persons=["p"], companies=["c"])
        t.graph.add_arc("p", "c", EColor.TRADING)
        with pytest.raises(ValidationError, match="companies"):
            t.validate()

    def test_influence_into_person_rejected(self):
        t = TPIIN.build(persons=["p", "q"], companies=["c"])
        t.graph.add_arc("p", "q", EColor.INFLUENCE)
        with pytest.raises(ValidationError):
            t.validate()

    def test_cyclic_antecedent_rejected(self):
        t = TPIIN.build(
            companies=["a", "b"],
            influence=[("a", "b"), ("b", "a")],
        )
        with pytest.raises(ValidationError, match="cycle"):
            t.validate()

    def test_unknown_node_color_rejected(self):
        t = TPIIN.build(companies=["a"])
        t.graph.add_node("weird", "Alien")
        with pytest.raises(ValidationError):
            t.validate()

    def test_self_loop_rejected(self):
        t = TPIIN.build(companies=["a", "b"], influence=[("a", "b")])
        t.graph.add_arc("a", "a", EColor.TRADING)
        with pytest.raises(ValidationError):
            t.validate()


class TestEdgeListConversion:
    def test_roundtrip(self, fig8):
        edge_list = fig8.to_edge_list()
        assert edge_list.first_trading_row == 14
        back = TPIIN.from_edge_list(edge_list)
        assert set(back.graph.arcs()) == set(fig8.graph.arcs())
        assert back.graph.node_color("L1") == VColor.PERSON
        assert back.graph.node_color("C4") == VColor.COMPANY

    def test_inference_without_colors(self, fig8):
        edge_list = fig8.to_edge_list()
        # Drop the color hints: rebuild relies on structural inference.
        stripped = type(edge_list)(edge_list.array, edge_list.nodes)
        back = TPIIN.from_edge_list(stripped)
        back.validate()
        assert back.graph.node_color("L1") == VColor.PERSON
        assert back.graph.node_color("C6") == VColor.COMPANY

    def test_scs_members_property(self, fig8):
        assert fig8.scs_members == {}
