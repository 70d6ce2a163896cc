"""Unit tests for the frozen CSR kernel (`repro.graph.csr`)."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.model.colors import EColor, VColor


def sample_graph() -> DiGraph:
    g = DiGraph()
    g.add_node("P1", VColor.PERSON)
    for c in ("C1", "C2", "C3"):
        g.add_node(c, VColor.COMPANY)
    g.add_arc("P1", "C1", EColor.INFLUENCE)
    g.add_arc("C1", "C2", EColor.INFLUENCE)
    g.add_arc("C1", "C3", EColor.INFLUENCE)
    # Multi-color parallel arcs: C1 both influences and trades with C2.
    g.add_arc("C1", "C2", EColor.TRADING)
    g.add_arc("C3", "C2", EColor.TRADING)
    return g


def out_row(csr: CSRGraph, node, color) -> list:
    """Decoded successors of ``node`` in one color partition."""
    offsets, targets = csr.out_adjacency(color)
    u = csr.encode(node)
    return [csr.decode_table[v] for v in targets[offsets[u] : offsets[u + 1]]]


def in_row(csr: CSRGraph, node, color) -> list:
    """Decoded predecessors of ``node`` in one color partition."""
    offsets, targets = csr.in_adjacency(color)
    u = csr.encode(node)
    return [csr.decode_table[v] for v in targets[offsets[u] : offsets[u + 1]]]


def assert_rows_match(csr: CSRGraph, graph: DiGraph, colors) -> None:
    """The freeze round-trip in id space: every decoded row equals the
    ``str``-sorted successors/predecessors of the source graph."""
    assert sorted(csr.decode_table, key=str) == sorted(graph.nodes(), key=str)
    for node in graph.nodes():
        for color in colors:
            assert out_row(csr, node, color) == sorted(
                graph.successors(node, color), key=str
            )
            assert in_row(csr, node, color) == sorted(
                graph.predecessors(node, color), key=str
            )


class TestFreeze:
    def test_interning_is_str_sorted(self):
        csr = CSRGraph.freeze(sample_graph())
        assert list(csr.decode_table) == ["C1", "C2", "C3", "P1"]
        assert [csr.encode(n) for n in csr.decode_table] == [0, 1, 2, 3]

    def test_arc_colors_and_parallel_arcs(self):
        csr = CSRGraph.freeze(sample_graph())
        # C1 -> C2 sits in both partitions; C3 -> C2 only in trading.
        assert out_row(csr, "C1", EColor.INFLUENCE) == ["C2", "C3"]
        assert out_row(csr, "C1", EColor.TRADING) == ["C2"]
        assert out_row(csr, "C3", EColor.INFLUENCE) == []
        assert out_row(csr, "C3", EColor.TRADING) == ["C2"]
        assert out_row(csr, "C2", EColor.TRADING) == []

    def test_degrees_match_source(self):
        g = sample_graph()
        csr = CSRGraph.freeze(g)
        for color in (EColor.INFLUENCE, EColor.TRADING):
            out_offsets, _ = csr.out_adjacency(color)
            in_offsets, _ = csr.in_adjacency(color)
            for node in g.nodes():
                u = csr.encode(node)
                assert out_offsets[u + 1] - out_offsets[u] == g.out_degree(node, color)
                assert in_offsets[u + 1] - in_offsets[u] == g.in_degree(node, color)

    def test_successors_are_sorted(self):
        csr = CSRGraph.freeze(sample_graph())
        assert out_row(csr, "C1", EColor.INFLUENCE) == ["C2", "C3"]
        assert in_row(csr, "C2", EColor.TRADING) == ["C1", "C3"]
        offsets, targets = csr.out_adjacency(EColor.INFLUENCE)
        u = csr.encode("C1")
        row = list(targets[offsets[u] : offsets[u + 1]])
        assert row == sorted(row)

    def test_arc_counts(self):
        csr = CSRGraph.freeze(sample_graph())
        assert csr.number_of_arcs(EColor.INFLUENCE) == 3
        assert csr.number_of_arcs(EColor.TRADING) == 2
        assert csr.number_of_arcs() == 5

    def test_root_ids(self):
        # Roots are the empty in-rows of a partition (the kernel's
        # patterns-tree starts under the influence partition).
        csr = CSRGraph.freeze(sample_graph())

        def roots(color):
            offsets, _ = csr.in_adjacency(color)
            return [
                csr.decode_table[u]
                for u in range(len(csr))
                if offsets[u] == offsets[u + 1]
            ]

        assert roots(EColor.INFLUENCE) == ["P1"]
        # Under the trading partition, C1 and C3 receive nothing.
        assert roots(EColor.TRADING) == ["C1", "C3", "P1"]

    def test_color_restriction_drops_other_arcs(self):
        csr = CSRGraph.freeze(sample_graph(), colors=(EColor.INFLUENCE,))
        assert csr.number_of_arcs() == 3
        with pytest.raises(ValueError):
            csr.out_adjacency(EColor.TRADING)
        with pytest.raises(ValueError):
            csr.number_of_arcs(EColor.TRADING)

    def test_unknown_node_raises(self):
        csr = CSRGraph.freeze(sample_graph())
        with pytest.raises(NodeNotFoundError):
            csr.encode("missing")


class TestRoundTrip:
    def test_thaw_reproduces_graph(self):
        g = sample_graph()
        assert_rows_match(
            CSRGraph.freeze(g), g, (EColor.INFLUENCE, EColor.TRADING)
        )

    def test_refreeze_is_stable(self):
        # Insertion order does not leak into the frozen buffers.
        g = sample_graph()
        reversed_g = DiGraph()
        for node in reversed(list(g.nodes())):
            reversed_g.add_node(node, g.node_color(node))
        for tail, head, color in reversed(list(g.arcs())):
            reversed_g.add_arc(tail, head, color)
        csr = CSRGraph.freeze(g)
        again = CSRGraph.freeze(reversed_g)
        assert again.decode_table == csr.decode_table
        for color in (EColor.INFLUENCE, EColor.TRADING):
            assert again.out_adjacency(color) == csr.out_adjacency(color)
            assert again.in_adjacency(color) == csr.in_adjacency(color)

    def test_empty_graph(self):
        csr = CSRGraph.freeze(DiGraph())
        assert len(csr) == 0
        assert csr.number_of_arcs() == 0

    def test_isolated_nodes_survive(self):
        g = DiGraph()
        g.add_node("lonely", VColor.COMPANY)
        csr = CSRGraph.freeze(g, colors=(EColor.INFLUENCE,))
        assert csr.decode_table == ("lonely",)
        assert out_row(csr, "lonely", EColor.INFLUENCE) == []
        assert in_row(csr, "lonely", EColor.INFLUENCE) == []


class TestPickle:
    def test_pickle_round_trip(self):
        csr = CSRGraph.freeze(sample_graph())
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.decode_table == csr.decode_table
        for color in (EColor.INFLUENCE, EColor.TRADING):
            assert clone.out_adjacency(color) == csr.out_adjacency(color)
            assert clone.in_adjacency(color) == csr.in_adjacency(color)
        assert clone.encode("C1") == csr.encode("C1")
        assert out_row(clone, "C1", EColor.INFLUENCE) == ["C2", "C3"]
