"""Property: the graph cores behave like a plain dict-of-sets model.

Random add/remove/``remove_node`` sequences run on :class:`DiGraph` and
:class:`UnGraph` next to a model that keeps one ``set`` of colors per
arc.  After each sequence the graph's arcs, colors, degrees and
per-color counts must equal the model's, and so must the results of
``copy``, ``subgraph``, ``color_subgraph`` and ``reversed``.

Both cores share storage: every row entry is the intern table's one
frozenset for its color combination, and every row key is the node's
one stored object.  The ops pass freshly built id strings, so a core
that kept the caller's object would fail the identity checks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArcNotFoundError, NodeNotFoundError
from repro.graph import digraph
from repro.graph.digraph import DiGraph, UnGraph

NODES = [f"n{i}" for i in range(6)]
COLORS = ["IN", "TR", "KIN"]
#: The color ``add_node`` gives each node (auto-created endpoints get none).
NODE_COLOR = {node: ("Person" if i % 2 else "Company") for i, node in enumerate(NODES)}


def _fresh(node: str) -> str:
    """An id string equal to ``node`` but not the same object."""
    return "".join(list(node))


_node = st.sampled_from(NODES)
_color = st.sampled_from(COLORS)
_di_op = st.one_of(
    st.tuples(st.just("add_arc"), _node, _node, _color),
    st.tuples(st.just("add_arcs"), st.lists(st.tuples(_node, _node), max_size=5), _color),
    st.tuples(st.just("remove_arc"), _node, _node, st.none() | _color),
    st.tuples(st.just("remove_node"), _node),
    st.tuples(st.just("add_node"), _node),
)


class DiModel:
    def __init__(self) -> None:
        self.nodes: dict[str, str | None] = {}
        self.arcs: dict[tuple[str, str], set[str]] = {}

    def add_node(self, node: str, color: str | None = None) -> None:
        if self.nodes.get(node) is None:
            self.nodes[node] = color

    def add_arc(self, tail: str, head: str, color: str) -> bool:
        self.add_node(tail)
        self.add_node(head)
        colors = self.arcs.setdefault((tail, head), set())
        if color in colors:
            return False
        colors.add(color)
        return True

    def remove_arc(self, tail: str, head: str, color: str | None) -> bool:
        colors = self.arcs.get((tail, head))
        if not colors or (color is not None and color not in colors):
            return False
        if color is None:
            colors.clear()
        else:
            colors.discard(color)
        if not colors:
            del self.arcs[(tail, head)]
        return True

    def remove_node(self, node: str) -> bool:
        if node not in self.nodes:
            return False
        del self.nodes[node]
        self.arcs = {arc: cs for arc, cs in self.arcs.items() if node not in arc}
        return True

    def triples(self, keep=lambda tail, head, color: True) -> list[tuple[str, str, str]]:
        return sorted(
            (t, h, c) for (t, h), cs in self.arcs.items() for c in cs if keep(t, h, c)
        )


def _apply(graph: DiGraph, model: DiModel, op: tuple) -> None:
    kind = op[0]
    if kind == "add_arc":
        _, tail, head, color = op
        assert graph.add_arc(_fresh(tail), _fresh(head), color) == model.add_arc(
            tail, head, color
        )
    elif kind == "add_arcs":
        _, pairs, color = op
        expected = sum(model.add_arc(t, h, color) for t, h in pairs)
        assert graph.add_arcs([(_fresh(t), _fresh(h)) for t, h in pairs], color) == expected
    elif kind == "remove_arc":
        _, tail, head, color = op
        if model.remove_arc(tail, head, color):
            graph.remove_arc(_fresh(tail), _fresh(head), color)
        else:
            with pytest.raises(ArcNotFoundError):
                graph.remove_arc(_fresh(tail), _fresh(head), color)
    elif kind == "remove_node":
        (_, node) = op
        if model.remove_node(node):
            graph.remove_node(_fresh(node))
        else:
            with pytest.raises(NodeNotFoundError):
                graph.remove_node(_fresh(node))
    else:
        (_, node) = op
        graph.add_node(_fresh(node), NODE_COLOR[node])
        model.add_node(node, NODE_COLOR[node])


def _assert_shared(rows: dict, ids: dict) -> None:
    for key, row in rows.items():
        assert key is ids[key]
        for other, colors in row.items():
            assert other is ids[other]
            assert colors is digraph._COLOR_SETS[colors]


def _assert_di_shared(graph: DiGraph) -> None:
    assert graph._ids.keys() == graph._succ.keys() == graph._pred.keys()
    _assert_shared(graph._succ, graph._ids)
    _assert_shared(graph._pred, graph._ids)
    for tail, row in graph._succ.items():
        for head, colors in row.items():
            assert graph._pred[head][tail] is colors


def _assert_matches(graph: DiGraph, nodes: dict, triples: list) -> None:
    assert sorted(graph.nodes()) == sorted(nodes)
    for node, color in nodes.items():
        assert graph.node_color(node) == color
    assert sorted(graph.arcs()) == triples
    assert graph.number_of_arcs() == len(triples)
    for color in COLORS:
        assert graph.number_of_arcs(color) == sum(c == color for _t, _h, c in triples)
        assert sorted(graph.arcs(color)) == [a for a in triples if a[2] == color]
    for node in nodes:
        out = [a for a in triples if a[0] == node]
        into = [a for a in triples if a[1] == node]
        assert graph.out_degree(node) == len(out)
        assert graph.in_degree(node) == len(into)
        assert graph.degree(node) == len(out) + len(into)
        assert sorted(graph.out_arcs(node)) == out
        assert sorted(graph.in_arcs(node)) == sorted(into)
        for color in COLORS:
            assert graph.out_degree(node, color) == sum(a[2] == color for a in out)
            assert sorted(graph.successors(node, color)) == sorted(
                {h for _t, h, c in out if c == color}
            )
            assert sorted(graph.predecessors(node, color)) == sorted(
                {t for t, _h, c in into if c == color}
            )
    for tail in NODES:
        for head in NODES:
            expected = {c for t, h, c in triples if (t, h) == (tail, head)}
            assert graph.arc_colors(tail, head) == expected
            assert graph.has_arc(tail, head) == bool(expected)
    _assert_di_shared(graph)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_di_op, max_size=40), keep=st.sets(_node), color=_color)
def test_digraph_matches_the_dict_of_sets_model(ops, keep, color):
    graph, model = DiGraph(), DiModel()
    for op in ops:
        _apply(graph, model, op)
        _assert_di_shared(graph)
    _assert_matches(graph, model.nodes, model.triples())
    _assert_matches(graph.copy(), model.nodes, model.triples())

    kept = {n: c for n, c in model.nodes.items() if n in keep}
    sub = graph.subgraph(_fresh(n) for n in keep)
    _assert_matches(sub, kept, model.triples(lambda t, h, c: t in keep and h in keep))

    in_color = model.triples(lambda t, h, c: c == color)
    _assert_matches(graph.color_subgraph(color), model.nodes, in_color)
    touched = {n for t, h, _c in in_color for n in (t, h)}
    _assert_matches(
        graph.color_subgraph(color, keep_all_nodes=False),
        {n: model.nodes[n] for n in touched},
        in_color,
    )

    reverse = sorted((h, t, c) for t, h, c in model.triples())
    _assert_matches(graph.reversed(), model.nodes, reverse)


_pair = st.tuples(_node, _node).filter(lambda pair: pair[0] != pair[1])
_un_op = st.one_of(
    st.tuples(st.just("add_edge"), _pair, _color),
    st.tuples(st.just("add_node"), _node),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_un_op, max_size=40))
def test_ungraph_matches_the_dict_of_sets_model(ops):
    graph = UnGraph()
    nodes: dict[str, str | None] = {}
    edges: dict[frozenset[str], set[str]] = {}
    for op in ops:
        if op[0] == "add_edge":
            _, (u, v), color = op
            nodes.setdefault(u, None)
            nodes.setdefault(v, None)
            colors = edges.setdefault(frozenset((u, v)), set())
            assert graph.add_edge(_fresh(u), _fresh(v), color) == (color not in colors)
            colors.add(color)
        else:
            (_, node) = op
            graph.add_node(_fresh(node), NODE_COLOR[node])
            if nodes.get(node) is None:
                nodes[node] = NODE_COLOR[node]
        _assert_shared(graph._adj, graph._ids)

    assert sorted(graph.nodes()) == sorted(nodes)
    assert {n: graph.node_color(n) for n in nodes} == nodes
    seen = sorted((*sorted((u, v)), c) for u, v, c in graph.edges())
    assert seen == sorted((*sorted(pair), c) for pair, cs in edges.items() for c in cs)
    assert graph.number_of_edges() == sum(len(cs) for cs in edges.values())
    for color in COLORS:
        assert graph.number_of_edges(color) == sum(color in cs for cs in edges.values())
    for node in nodes:
        incident = {pair: cs for pair, cs in edges.items() if node in pair}
        assert graph.degree(node) == sum(len(cs) for cs in incident.values())
        assert sorted(graph.neighbors(node)) == sorted(
            other for pair in incident for other in pair if other != node
        )
    for u in NODES:
        for v in NODES:
            assert graph.edge_colors(u, v) == edges.get(frozenset((u, v)), set())
    for row_key, row in graph._adj.items():
        for other, colors in row.items():
            assert graph._adj[other][row_key] is colors
