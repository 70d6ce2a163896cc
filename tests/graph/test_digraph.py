"""Unit tests for the colored digraph core."""

import pickle

import pytest

from repro.errors import ArcNotFoundError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.model.colors import EColor, VColor


def build_sample() -> DiGraph:
    g = DiGraph()
    g.add_node("P", color="Person")
    g.add_node("A", color="Company")
    g.add_node("B", color="Company")
    g.add_arc("P", "A", "IN")
    g.add_arc("A", "B", "IN")
    g.add_arc("A", "B", "TR")
    return g


class TestNodes:
    def test_add_and_contains(self):
        g = DiGraph()
        g.add_node("x")
        assert "x" in g
        assert g.has_node("x")
        assert len(g) == 1

    def test_add_is_idempotent(self):
        g = DiGraph()
        g.add_node("x", color="Person")
        g.add_node("x", color="Person")
        assert g.number_of_nodes() == 1

    def test_color_refinement_from_none(self):
        g = DiGraph()
        g.add_node("x")
        g.add_node("x", color="Person")
        assert g.node_color("x") == VColor.PERSON

    def test_recolor_conflict_raises(self):
        g = DiGraph()
        g.add_node("x", color="Person")
        with pytest.raises(ValueError, match="recolor"):
            g.add_node("x", color="Company")

    def test_attrs_merge(self):
        g = DiGraph()
        g.add_node("x", color="Person", name="Li")
        g.add_node("x", industry="tea")
        assert g.node_attrs("x") == {"name": "Li", "industry": "tea"}

    def test_nodes_by_color(self):
        g = build_sample()
        assert set(g.nodes("Company")) == {"A", "B"}
        assert g.number_of_nodes("Person") == 1

    def test_missing_node_errors(self):
        g = DiGraph()
        with pytest.raises(NodeNotFoundError):
            g.node_color("nope")
        with pytest.raises(NodeNotFoundError):
            g.remove_node("nope")
        with pytest.raises(NodeNotFoundError):
            list(g.successors("nope"))

    def test_remove_node_cleans_arcs(self):
        g = build_sample()
        g.remove_node("A")
        assert g.number_of_arcs() == 0
        assert not g.has_node("A")
        assert g.has_node("B")

    def test_remove_node_with_self_loop(self):
        g = DiGraph()
        g.add_arc("x", "x", "IN")
        g.remove_node("x")
        assert g.number_of_arcs() == 0
        assert len(g) == 0


class TestArcs:
    def test_add_arc_creates_endpoints(self):
        g = DiGraph()
        assert g.add_arc("a", "b", "IN") is True
        assert g.has_node("a") and g.has_node("b")

    def test_duplicate_arc_is_noop(self):
        g = DiGraph()
        g.add_arc("a", "b", "IN")
        assert g.add_arc("a", "b", "IN") is False
        assert g.number_of_arcs() == 1

    def test_parallel_colors_coexist(self):
        g = build_sample()
        assert g.arc_colors("A", "B") == frozenset({"IN", "TR"})
        assert g.number_of_arcs() == 3
        assert g.number_of_arcs("TR") == 1

    def test_none_color_rejected(self):
        g = DiGraph()
        with pytest.raises(ValueError, match="color"):
            g.add_arc("a", "b", None)

    def test_add_arcs_bulk(self):
        g = DiGraph()
        added = g.add_arcs([("a", "b"), ("b", "c"), ("a", "b")], "TR")
        assert added == 2
        assert g.number_of_arcs("TR") == 2

    def test_add_arcs_bulk_rejects_none(self):
        g = DiGraph()
        with pytest.raises(ValueError):
            g.add_arcs([("a", "b")], None)

    def test_remove_specific_color(self):
        g = build_sample()
        g.remove_arc("A", "B", "TR")
        assert g.arc_colors("A", "B") == frozenset({"IN"})
        assert g.number_of_arcs() == 2

    def test_remove_all_colors(self):
        g = build_sample()
        g.remove_arc("A", "B")
        assert not g.has_arc("A", "B")
        assert g.number_of_arcs() == 1

    def test_remove_missing_raises(self):
        g = build_sample()
        with pytest.raises(ArcNotFoundError):
            g.remove_arc("P", "B")
        with pytest.raises(ArcNotFoundError):
            g.remove_arc("A", "B", "XX")

    def test_arcs_iteration_with_filter(self):
        g = build_sample()
        assert set(g.arcs("IN")) == {("P", "A", "IN"), ("A", "B", "IN")}
        assert len(list(g.arcs())) == 3

    def test_has_arc_color_filter(self):
        g = build_sample()
        assert g.has_arc("A", "B", "TR")
        assert not g.has_arc("P", "A", "TR")
        assert g.has_arc("P", "A")


class TestAdjacencyAndDegrees:
    def test_successors_predecessors(self):
        g = build_sample()
        assert set(g.successors("A")) == {"B"}
        assert set(g.predecessors("B")) == {"A"}
        assert set(g.successors("A", "TR")) == {"B"}
        assert set(g.predecessors("A", "TR")) == set()

    def test_degrees(self):
        g = build_sample()
        assert g.out_degree("A") == 2  # IN + TR to B
        assert g.out_degree("A", "IN") == 1
        assert g.in_degree("B") == 2
        assert g.in_degree("B", "TR") == 1
        assert g.degree("A") == 3

    def test_in_out_arcs(self):
        g = build_sample()
        assert set(g.out_arcs("A")) == {("A", "B", "IN"), ("A", "B", "TR")}
        assert set(g.in_arcs("A")) == {("P", "A", "IN")}


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = build_sample()
        clone = g.copy()
        clone.add_arc("B", "P2", "IN")
        assert not g.has_node("P2")
        assert set(clone.arcs()) >= set(g.arcs())

    def test_subgraph_induced(self):
        g = build_sample()
        sub = g.subgraph(["A", "B", "ghost"])
        assert set(sub.nodes()) == {"A", "B"}
        assert sub.has_arc("A", "B", "IN")
        assert sub.has_arc("A", "B", "TR")
        assert not sub.has_node("P")

    def test_color_subgraph_keeps_nodes(self):
        g = build_sample()
        sub = g.color_subgraph("IN")
        assert set(sub.nodes()) == {"P", "A", "B"}
        assert sub.number_of_arcs() == 2

    def test_color_subgraph_drop_isolated(self):
        g = build_sample()
        g.add_node("lonely", color="Company")
        sub = g.color_subgraph("TR", keep_all_nodes=False)
        assert set(sub.nodes()) == {"A", "B"}

    def test_reversed(self):
        g = build_sample()
        rev = g.reversed()
        assert rev.has_arc("B", "A", "TR")
        assert rev.has_arc("A", "P", "IN")
        assert rev.node_color("P") == VColor.PERSON

    def test_pickle_roundtrip(self):
        g = build_sample()
        clone = pickle.loads(pickle.dumps(g))
        assert set(clone.arcs()) == set(g.arcs())
        assert clone.node_color("P") == VColor.PERSON
        clone.add_arc("B", "C", "TR")
        assert not g.has_node("C")

    def test_pickle_round_trip_shares_colors_and_node_ids_again(self):
        g = DiGraph()
        for i in range(300):
            g.add_node(f"C{i:04d}", VColor.COMPANY)
        for i in range(299):
            g.add_arc(f"C{i:04d}", f"C{i + 1:04d}", EColor.INFLUENCE)
            g.add_arc(f"C{i + 1:04d}", f"C{i:04d}", EColor.TRADING)
        g.add_arc("C0000", "C0001", EColor.TRADING)
        clone = pickle.loads(pickle.dumps(g))
        assert sorted(clone.arcs(), key=str) == sorted(g.arcs(), key=str)
        for tail, head, _color in g.arcs():
            # The loaded rows hold the intern table's sets, not copies.
            assert clone.arc_colors(tail, head) is g.arc_colors(tail, head)
        both = g.arc_colors("C0000", "C0001")
        assert both == {EColor.INFLUENCE, EColor.TRADING}
        # A fresh id string equal to a loaded node resolves to that node.
        fresh = "".join(["C", "0002"])
        clone.add_arc(fresh, "C0001", EColor.INFLUENCE)
        assert clone.arc_colors("C0002", "C0001") is both
        (stored,) = (n for n in clone.nodes() if n == fresh)
        assert stored is not fresh
        assert [n for n in clone.predecessors("C0001") if n == fresh][0] is stored
        clone.add_arc("C0299", "C0300", EColor.TRADING)
        assert clone.arc_colors("C0299", "C0300") is g.arc_colors("C0001", "C0000")


class TestReAddAfterRemoval:
    def test_arc_readd(self):
        g = build_sample()
        g.remove_arc("A", "B", "TR")
        assert g.add_arc("A", "B", "TR") is True
        assert g.number_of_arcs("TR") == 1

    def test_node_readd_after_removal(self):
        g = build_sample()
        g.remove_node("A")
        g.add_node("A", color="Company")
        assert g.node_color("A") == VColor.COMPANY
        assert g.in_degree("A") == 0
