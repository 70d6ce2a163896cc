"""Unit tests for the iterative Tarjan SCC implementation."""

import random

import networkx as nx
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.tarjan import nontrivial_sccs, strongly_connected_components, tarjan_sccs


class TestHandCases:
    def test_single_cycle(self):
        g = DiGraph()
        g.add_arc("a", "b", "I")
        g.add_arc("b", "c", "I")
        g.add_arc("c", "a", "I")
        comps = strongly_connected_components(g)
        assert {frozenset(c) for c in comps} == {frozenset({"a", "b", "c"})}

    def test_dag_gives_singletons(self):
        g = DiGraph()
        g.add_arc("a", "b", "I")
        g.add_arc("b", "c", "I")
        comps = strongly_connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_two_cycles_bridge(self):
        g = DiGraph()
        for u, v in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]:
            g.add_arc(u, v, "I")
        comps = {frozenset(c) for c in strongly_connected_components(g)}
        assert frozenset({"a", "b"}) in comps
        assert frozenset({"c", "d"}) in comps

    def test_reverse_topological_emission(self):
        # Tarjan emits a component before any component that reaches it.
        g = DiGraph()
        g.add_arc("a", "b", "I")
        g.add_arc("b", "c", "I")
        comps = strongly_connected_components(g)
        order = {next(iter(c)): i for i, c in enumerate(comps)}
        assert order["c"] < order["a"]

    def test_color_filter(self):
        g = DiGraph()
        g.add_arc("a", "b", "I")
        g.add_arc("b", "a", "T")  # back edge in another color
        comps = {frozenset(c) for c in strongly_connected_components(g, "I")}
        assert comps == {frozenset({"a"}), frozenset({"b"})}
        comps_all = {frozenset(c) for c in strongly_connected_components(g)}
        assert comps_all == {frozenset({"a", "b"})}

    def test_deep_chain_no_recursion_limit(self):
        g = DiGraph()
        n = 50_000
        for i in range(n - 1):
            g.add_arc(i, i + 1, "I")
        comps = strongly_connected_components(g)
        assert len(comps) == n


def _investment_graph(pairs):
    g = DiGraph()
    for u, v in pairs:
        g.add_arc(u, v, "Investment")
    return g


def _mutual_investment():
    """The contraction tests' fixture: p -> a; a <-> b; b -> c."""
    g = DiGraph()
    for node in ("p", "a", "b", "c"):
        g.add_node(node)
    g.add_arc("p", "a", "Influence")
    for u, v in [("a", "b"), ("b", "a"), ("b", "c")]:
        g.add_arc(u, v, "Investment")
    return g


class TestGenericKernel:
    """The node-iterable/successor-callable kernel keeps the component
    order the DiGraph walk had before it was factored out."""

    FIXTURES = [
        (_mutual_investment(), "Investment", [["p"], ["c"], ["b", "a"]]),
        (_mutual_investment(), None, [["c"], ["b", "a"], ["p"]]),
        (
            _investment_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "c")]),
            "Investment",
            [["d", "c", "b", "a"]],
        ),
        (
            _investment_graph(
                [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"), ("e", "a"),
                 ("d", "e")]
            ),
            "Investment",
            [["e", "d", "c", "b", "a"]],
        ),
    ]

    @pytest.mark.parametrize("graph, color, expected", FIXTURES)
    def test_fusion_fixtures_keep_their_order(self, graph, color, expected):
        assert strongly_connected_components(graph, color) == expected
        successors = {node: list(graph.successors(node, color)) for node in graph.nodes()}
        assert tarjan_sccs(graph.nodes(), successors.__getitem__) == expected

    def test_successor_outside_the_roots_is_visited(self):
        assert tarjan_sccs(["a"], {"a": ["b"], "b": ["a"]}.__getitem__) == [["b", "a"]]


class TestNontrivial:
    def test_excludes_singletons(self):
        g = DiGraph()
        g.add_arc("a", "b", "I")
        assert nontrivial_sccs(g) == []

    def test_includes_self_loop(self):
        g = DiGraph()
        g.add_arc("a", "a", "I")
        g.add_arc("a", "b", "I")
        assert [set(c) for c in nontrivial_sccs(g)] == [{"a"}]

    def test_self_loop_color_filter(self):
        g = DiGraph()
        g.add_arc("a", "a", "T")
        assert nontrivial_sccs(g, "I") == []
        assert [set(c) for c in nontrivial_sccs(g, "T")] == [{"a"}]


class TestAgainstNetworkx:
    def test_random_graphs(self):
        rng = random.Random(13)
        for trial in range(12):
            n = rng.randrange(5, 60)
            g = DiGraph()
            ng = nx.DiGraph()
            for i in range(n):
                g.add_node(i)
                ng.add_node(i)
            for _ in range(int(1.8 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                g.add_arc(u, v, "I")
                ng.add_edge(u, v)
            ours = {frozenset(c) for c in strongly_connected_components(g)}
            theirs = {frozenset(c) for c in nx.strongly_connected_components(ng)}
            assert ours == theirs, f"trial {trial} diverged"
