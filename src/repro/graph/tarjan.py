"""Iterative Tarjan strongly-connected-components algorithm.

The fusion pipeline (Section 4.1) applies Tarjan's algorithm [26] to the
investment graph to locate sets of companies with mutual investment
arrangements; each strongly connected subgraph (SCS) is then contracted
into a single *Company* syndicate so that the antecedent network becomes a
DAG (Appendix A).

The classic formulation is recursive; this implementation is an explicit-
stack translation so that arbitrarily deep investment chains (thousands of
holding layers in a synthetic stress test) cannot overflow the interpreter
stack.  Components are emitted in reverse topological order of the
condensation, which is the order Tarjan's algorithm naturally produces.

The kernel, :func:`tarjan_sccs`, takes a node iterable and a successor
callable, so the circular-trading detector runs it over a frozen
trading view as the fusion pipeline runs it over a
:class:`~repro.graph.digraph.DiGraph`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.graph.digraph import DiGraph, Node

__all__ = ["strongly_connected_components", "nontrivial_sccs", "tarjan_sccs"]

#: The index a node takes once its component is emitted: above every
#: real index, so a later arc into it never lowers a lowlink.
_DONE = sys.maxsize


def strongly_connected_components(graph: DiGraph, color: Any = None) -> list[list[Node]]:
    """Return all strongly connected components of ``graph``.

    Each component is a list of nodes; every node appears in exactly one
    component (singletons included).  When ``color`` is given only arcs of
    that color are followed, which lets the caller run SCC detection on
    the investment arcs of a mixed-color graph directly.
    """
    return tarjan_sccs(graph.nodes(), lambda node: list(graph.successors(node, color)))


def tarjan_sccs(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    """Strongly connected components of the graph ``successors`` spans.

    Roots are tried in ``nodes`` order and each node's successors in the
    order ``successors(node)`` yields them; a successor outside ``nodes``
    is still visited.  Every reached node lands in exactly one component.
    """
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        # Each work item is (node, iterator over its successors).
        work: list[tuple[Node, Iterator[Node]]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        while work:
            node, pending = work[-1]
            low = lowlink[node]
            for nxt in pending:
                index = index_of.get(nxt)
                if index is None:
                    lowlink[node] = low
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                # A node whose component is out carries _DONE, so only
                # nodes still on the stack can lower ``low``.
                if index < low:
                    low = index
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index_of[node]:
                    component: list[Node] = []
                    while True:
                        member = stack.pop()
                        index_of[member] = _DONE
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def nontrivial_sccs(graph: DiGraph, color: Any = None) -> list[list[Node]]:
    """SCCs with more than one node, or a single node with a self-loop.

    These are exactly the strongly connected subgraphs the fusion pipeline
    must contract: a trivial singleton without a self-loop is already
    DAG-compatible.
    """
    result = []
    for component in strongly_connected_components(graph, color):
        if len(component) > 1:
            result.append(component)
        else:
            node = component[0]
            if graph.has_arc(node, node, color) or (
                color is None and graph.has_arc(node, node)
            ):
                result.append(component)
    return result
