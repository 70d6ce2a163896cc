"""Directed-acyclic-graph utilities.

Property 1 of the paper states that the antecedent network is a DAG after
strongly-connected-subgraph contraction, so every walk in it is a trail
and a path.  The pattern-tree construction (Algorithm 2) and the
incremental detector both lean on the utilities here: acyclicity checking,
topological order, indegree-zero roots, and exhaustive simple-path
enumeration/counting between roots and reachable nodes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from typing import Any

from repro.errors import NodeNotFoundError, NotADagError
from repro.graph.digraph import DiGraph, Node

__all__ = [
    "is_dag",
    "topological_order",
    "roots",
    "leaves",
    "enumerate_paths_from",
    "count_paths_from_roots",
    "ancestor_closure",
    "path_arcs",
]


def topological_order(graph: DiGraph, color: Any = None) -> list[Node]:
    """Kahn topological order of ``graph`` (restricted to ``color`` arcs).

    Raises :class:`NotADagError` when a cycle exists among the selected
    arcs.  Nodes with no selected arcs appear in the order as well.
    """
    indegree = {node: graph.in_degree(node, color) for node in graph.nodes()}
    queue: deque[Node] = deque(n for n, d in indegree.items() if d == 0)
    order: list[Node] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nxt in graph.successors(node, color):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if len(order) != graph.number_of_nodes():
        cyclic = sorted(
            (repr(n) for n, d in indegree.items() if d > 0 and n not in order)
        )[:5]
        raise NotADagError(
            "graph contains a directed cycle among nodes: " + ", ".join(cyclic)
        )
    return order


def is_dag(graph: DiGraph, color: Any = None) -> bool:
    """True when the (color-restricted) graph has no directed cycle."""
    try:
        topological_order(graph, color)
    except NotADagError:
        return False
    return True


def roots(graph: DiGraph, color: Any = None) -> list[Node]:
    """Nodes with indegree zero (the pattern-tree start nodes)."""
    return [n for n in graph.nodes() if graph.in_degree(n, color) == 0]


def leaves(graph: DiGraph, color: Any = None) -> list[Node]:
    """Nodes with outdegree zero (Rule 1 stop nodes)."""
    return [n for n in graph.nodes() if graph.out_degree(n, color) == 0]


def enumerate_paths_from(
    graph: DiGraph,
    start: Node,
    color: Any = None,
    *,
    max_paths: int | None = None,
) -> Iterator[tuple[Node, ...]]:
    """Yield every simple directed path starting at ``start``.

    The single-node path ``(start,)`` is yielded first, then longer paths
    in depth-first order.  On a DAG every walk is simple (Property 1), so
    this enumerates all trails from ``start``.  The graph is *not*
    required to be acyclic — a visited-set guard keeps paths simple either
    way, which the global-traversal baseline relies on.

    ``max_paths`` bounds the enumeration as a safety valve for the
    combinatorial-explosion benchmark; ``None`` means unbounded.
    """
    if not graph.has_node(start):
        raise NodeNotFoundError(start)
    emitted = 0
    path: list[Node] = [start]
    on_path = {start}
    # Stack of successor iterators, parallel to `path`.
    iters: list[Iterator[Node]] = [iter(list(graph.successors(start, color)))]
    yield (start,)
    emitted += 1
    if max_paths is not None and emitted >= max_paths:
        return
    while iters:
        try:
            nxt = next(iters[-1])
        except StopIteration:
            iters.pop()
            on_path.discard(path.pop())
            continue
        if nxt in on_path:
            continue
        path.append(nxt)
        on_path.add(nxt)
        yield tuple(path)
        emitted += 1
        if max_paths is not None and emitted >= max_paths:
            return
        iters.append(iter(list(graph.successors(nxt, color))))


def count_paths_from_roots(graph: DiGraph, color: Any = None) -> dict[Node, int]:
    """Number of distinct root-to-node paths for every node of a DAG.

    A *root* is an indegree-zero node; each root contributes the trivial
    path to itself.  Computed by a single topological-order sweep, so this
    scales to the provincial antecedent network where explicit enumeration
    would be wasteful.
    """
    counts: dict[Node, int] = {n: 0 for n in graph.nodes()}
    order = topological_order(graph, color)
    for node in order:
        if graph.in_degree(node, color) == 0:
            counts[node] = 1
    for node in order:
        for nxt in graph.successors(node, color):
            counts[nxt] += counts[node]
    return counts


def ancestor_closure(graph: DiGraph, color: Any = None) -> dict[Node, set[Node]]:
    """``node -> ancestors*(node)`` (ancestors including the node itself).

    The suspicious-arc oracle uses this closure: a trading arc
    ``c1 -> c2`` is suspicious iff the closures of its endpoints
    intersect.  Runs one topological sweep with set unions; adequate for
    test-scale graphs (the packed-bitset index in
    :mod:`repro.graph.bitset` covers provincial scale).
    """
    closure: dict[Node, set[Node]] = {}
    for node in topological_order(graph, color):
        own: set[Node] = {node}
        for prev in graph.predecessors(node, color):
            own |= closure[prev]
        closure[node] = own
    return closure


def path_arcs(path: Sequence[Node]) -> list[tuple[Node, Node]]:
    """The consecutive ``(tail, head)`` pairs of a node sequence."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]
