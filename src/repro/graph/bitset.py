"""Packed-bit root-ancestor index for common-antecedent tests.

The decisive question of the whole mining problem is: *do two companies
share an antecedent?*  In a DAG, two nodes share an ancestor (allowing a
node to count as its own ancestor) if and only if they share an
indegree-zero **root** ancestor, because every ancestor is itself reached
from some root.  The incremental detector therefore precomputes, for every
node, the set of roots that reach it, packed into a fixed-width bit row,
and answers each of the hundreds of thousands of Table-1 trading-arc
queries with one vectorized ``AND``.

Memory: the provincial network has ~2,100 roots and ~4,600 nodes, i.e.
roughly ``4600 * ceil(2100 / 8)`` = 1.2 MB packed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.dag import topological_order
from repro.graph.digraph import DiGraph, Node

__all__ = ["RootAncestorIndex"]


class RootAncestorIndex:
    """For each node of a DAG, the packed set of its root ancestors.

    A root counts as its own ancestor, so ``common_roots(r, x)`` is
    non-empty whenever root ``r`` reaches ``x`` — including ``x == r``.
    """

    def __init__(self, graph: DiGraph, color: Any = None) -> None:
        self._nodes: list[Node] = list(graph.nodes())
        self._node_index: dict[Node, int] = {n: i for i, n in enumerate(self._nodes)}
        self._roots: list[Node] = [
            n for n in self._nodes if graph.in_degree(n, color) == 0
        ]
        self._root_index: dict[Node, int] = {r: i for i, r in enumerate(self._roots)}
        n_nodes = len(self._nodes)
        n_roots = len(self._roots)
        width = max(1, -(-n_roots // 8))  # ceil-div; keep >=1 so rows exist
        bits = np.zeros((n_nodes, n_roots if n_roots else 1), dtype=bool)
        for root in self._roots:
            bits[self._node_index[root], self._root_index[root]] = True
        # One topological sweep ORs each node's row into its successors.
        for node in topological_order(graph, color):
            row = bits[self._node_index[node]]
            for nxt in graph.successors(node, color):
                bits[self._node_index[nxt]] |= row
        self._packed = np.packbits(bits, axis=1)
        assert self._packed.shape[1] <= max(width, 1)

    # ------------------------------------------------------------------
    @property
    def roots(self) -> list[Node]:
        return list(self._roots)

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes)

    def row(self, node: Node) -> np.ndarray:
        """The packed root-ancestor bit row of ``node``."""
        try:
            return self._packed[self._node_index[node]]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def root_ancestors(self, node: Node) -> set[Node]:
        """The unpacked set of roots that reach ``node``."""
        unpacked = np.unpackbits(self.row(node))[: len(self._roots)]
        return {self._roots[i] for i in np.flatnonzero(unpacked)}

    def shares_root(self, a: Node, b: Node) -> bool:
        """True when ``a`` and ``b`` have a common root ancestor."""
        return bool(np.any(self.row(a) & self.row(b)))

    def common_roots(self, a: Node, b: Node) -> set[Node]:
        both = np.unpackbits(self.row(a) & self.row(b))[: len(self._roots)]
        return {self._roots[i] for i in np.flatnonzero(both)}

    # ------------------------------------------------------------------
    def shares_root_bulk(
        self, tails: Sequence[Node], heads: Sequence[Node], *, chunk: int = 65536
    ) -> np.ndarray:
        """Vectorized :meth:`shares_root` over parallel arc endpoint lists.

        Returns a boolean vector of length ``len(tails)``.  This is the
        hot path of the Table-1 sweep: at trading probability 0.1 the
        provincial TPIIN holds ~600k trading arcs, each needing one
        common-antecedent test.
        """
        if len(tails) != len(heads):
            raise ValueError("tails and heads must have equal length")
        tail_ix = np.fromiter(
            (self._node_index[t] for t in tails), dtype=np.int64, count=len(tails)
        )
        head_ix = np.fromiter(
            (self._node_index[h] for h in heads), dtype=np.int64, count=len(heads)
        )
        out = np.empty(len(tails), dtype=bool)
        for lo in range(0, len(tails), chunk):
            hi = min(lo + chunk, len(tails))
            rows = self._packed[tail_ix[lo:hi]] & self._packed[head_ix[lo:hi]]
            out[lo:hi] = rows.any(axis=1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RootAncestorIndex nodes={len(self._nodes)} "
            f"roots={len(self._roots)}>"
        )
