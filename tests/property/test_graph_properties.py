"""Properties of the graph substrate, cross-checked against networkx."""

import networkx as nx
from hypothesis import given, settings

from repro.graph.csr import CSRGraph
from repro.graph.dag import count_paths_from_roots, enumerate_paths_from, roots
from repro.graph.edgelist import EdgeList
from repro.graph.tarjan import strongly_connected_components
from repro.graph.traversal import weakly_connected_components
from repro.model.colors import EColor

from .strategies import digraphs, tpiins


def to_networkx(graph) -> nx.DiGraph:
    ng = nx.DiGraph()
    ng.add_nodes_from(graph.nodes())
    ng.add_edges_from((t, h) for t, h, _c in graph.arcs())
    return ng


@settings(max_examples=150, deadline=None)
@given(graph=digraphs())
def test_tarjan_matches_networkx(graph):
    ours = {frozenset(c) for c in strongly_connected_components(graph)}
    theirs = {frozenset(c) for c in nx.strongly_connected_components(to_networkx(graph))}
    assert ours == theirs


@settings(max_examples=150, deadline=None)
@given(graph=digraphs())
def test_weak_components_match_networkx(graph):
    ours = {frozenset(c) for c in weakly_connected_components(graph)}
    theirs = {
        frozenset(c) for c in nx.weakly_connected_components(to_networkx(graph))
    }
    assert ours == theirs


@settings(max_examples=100, deadline=None)
@given(tpiin=tpiins())
def test_path_counts_match_enumeration(tpiin):
    from repro.model.colors import EColor

    graph = tpiin.graph
    counts = count_paths_from_roots(graph, EColor.INFLUENCE)
    explicit: dict = {node: 0 for node in graph.nodes()}
    for root in roots(graph, EColor.INFLUENCE):
        for path in enumerate_paths_from(graph, root, EColor.INFLUENCE):
            explicit[path[-1]] += 1
    assert counts == explicit


@settings(max_examples=100, deadline=None)
@given(tpiin=tpiins())
def test_edge_list_roundtrip_preserves_detection(tpiin):
    from repro.fusion.tpiin import TPIIN
    from repro.mining.detector import detect

    edge_list = tpiin.to_edge_list()
    back = TPIIN.from_edge_list(edge_list)
    assert {g.key() for g in detect(back).groups} == {
        g.key() for g in detect(tpiin).groups
    }


@settings(max_examples=100, deadline=None)
@given(tpiin=tpiins())
def test_edge_list_layout_invariant(tpiin):
    edge_list = tpiin.to_edge_list()
    m = edge_list.first_trading_row
    assert all(code == 1 for code in edge_list.array[:m, 2])
    assert all(code == 0 for code in edge_list.array[m:, 2])


@settings(max_examples=120, deadline=None)
@given(tpiin=tpiins())
def test_freeze_thaw_round_trip(tpiin):
    """freeze round-trips in id space: the decode table holds every node
    in ``str`` order, and each decoded out/in row equals the source
    graph's ``str``-sorted successors/predecessors for that color."""
    graph = tpiin.graph
    colors = (EColor.INFLUENCE, EColor.TRADING)
    csr = CSRGraph.freeze(graph, colors=colors)
    decode = csr.decode_table
    assert list(decode) == sorted(graph.nodes(), key=str)
    for color in colors:
        out_offsets, out_targets = csr.out_adjacency(color)
        in_offsets, in_targets = csr.in_adjacency(color)
        assert csr.number_of_arcs(color) == graph.number_of_arcs(color)
        for node in graph.nodes():
            u = csr.encode(node)
            assert [
                decode[v] for v in out_targets[out_offsets[u] : out_offsets[u + 1]]
            ] == sorted(graph.successors(node, color), key=str)
            assert [
                decode[v] for v in in_targets[in_offsets[u] : in_offsets[u + 1]]
            ] == sorted(graph.predecessors(node, color), key=str)
