"""Directed and undirected colored graph cores.

The paper models every network as a graph whose nodes and edges carry
*colors* (types).  This module provides the two in-memory structures that
every other subsystem builds on:

* :class:`DiGraph` — a directed graph whose arcs are keyed by
  ``(tail, head, color)``.  Two arcs with the same endpoints but different
  colors coexist (a company may both *invest in* and *trade with* the same
  counterparty), while re-adding an arc with an identical color is a no-op.
* :class:`UnGraph` — a minimal undirected graph used for the
  interdependence network *G1* (kinship / interlocking links) before it is
  contracted away by the fusion pipeline.

Both classes are deliberately dependency-free: ``networkx`` is only used in
the test suite as an independent reference implementation.

Both store an arc's colors as a shared ``frozenset`` taken from one
module-level intern table, so every arc with the same color combination
holds the same object, and each keeps a node id once, as the first
object seen for it: a million single-color arcs cost no set each, and a
CSV row's fresh id strings are dropped for the stored ones.  Mutations
swap a row's entry for another interned set instead of editing a set.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.errors import ArcNotFoundError, NodeNotFoundError

Node = Hashable

__all__ = ["DiGraph", "UnGraph", "Node"]

#: The one intern table of arc color sets that every graph draws from.
#: Its size is the number of distinct color combinations ever stored on
#: one arc, a handful in the paper's model.
_COLOR_SETS: dict[frozenset[Any], frozenset[Any]] = {}
_NO_COLORS: frozenset[Any] = frozenset()


def _interned(colors: frozenset[Any]) -> frozenset[Any]:
    """The shared frozenset equal to ``colors``."""
    return _COLOR_SETS.setdefault(colors, colors)


def _reintern(rows: dict[Node, dict[Node, frozenset[Any]]]) -> None:
    """Point every entry of ``rows`` at the intern table's set (after
    unpickling, which builds its own copies)."""
    for row in rows.values():
        for other, colors in row.items():
            row[other] = _interned(colors)


class DiGraph:
    """A directed graph with colored nodes and colored arcs.

    Nodes are arbitrary hashable identifiers.  Each node has an optional
    ``color`` (the paper uses ``Person`` / ``Company``) and a free-form
    attribute dictionary.  Each arc has a mandatory ``color`` (the paper
    uses ``Influence`` / ``Trading`` in the fused TPIIN, and finer-grained
    relationship types in the homogeneous source graphs).

    Example
    -------
    >>> g = DiGraph()
    >>> g.add_node("P1", color="Person")
    >>> g.add_node("C1", color="Company")
    >>> g.add_arc("P1", "C1", color="IN")
    True
    >>> g.out_degree("P1")
    1
    >>> sorted(g.successors("P1"))
    ['C1']
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_ids",
        "_node_color",
        "_node_attrs",
        "_arc_count",
        "_color_counts",
    )

    def __init__(self) -> None:
        # _succ[u][v] -> the interned frozenset of colors on u -> v; _pred
        # holds the same object at _pred[v][u] for reverse walks.  _ids[n]
        # is the stored object for node n: every row key is that object.
        self._succ: dict[Node, dict[Node, frozenset[Any]]] = {}
        self._pred: dict[Node, dict[Node, frozenset[Any]]] = {}
        self._ids: dict[Node, Node] = {}
        self._node_color: dict[Node, Any] = {}
        self._node_attrs: dict[Node, dict[str, Any]] = {}
        self._arc_count = 0
        # Per-color arc tallies so number_of_arcs(color) is O(1); every
        # mutation path (add_arc/add_arcs/remove_arc/remove_node) keeps
        # them in sync with the adjacency sets.
        self._color_counts: dict[Any, int] = {}

    # ------------------------------------------------------------------
    # node API
    # ------------------------------------------------------------------
    def add_node(self, node: Node, color: Any = None, **attrs: Any) -> None:
        """Add ``node`` (idempotent).

        Re-adding an existing node may refine its color (``None`` -> value)
        and merges attributes; it never silently changes an established
        color to a different one — that raises ``ValueError`` because a
        node that is both a ``Person`` and a ``Company`` would corrupt
        every downstream invariant.
        """
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._ids[node] = node
            self._node_color[node] = color
            self._node_attrs[node] = dict(attrs)
            return
        existing = self._node_color[node]
        if color is not None:
            if existing is not None and existing != color:
                raise ValueError(
                    f"node {node!r} already has color {existing!r}; "
                    f"cannot recolor to {color!r}"
                )
            self._node_color[node] = color
        if attrs:
            self._node_attrs[node].update(attrs)

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def node_color(self, node: Node) -> Any:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return self._node_color[node]

    def node_attrs(self, node: Node) -> dict[str, Any]:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return self._node_attrs[node]

    def nodes(self, color: Any = None) -> Iterator[Node]:
        """Iterate nodes, optionally restricted to one node color."""
        if color is None:
            return iter(self._succ)
        return (n for n, c in self._node_color.items() if c == color)

    def number_of_nodes(self, color: Any = None) -> int:
        if color is None:
            return len(self._succ)
        return sum(1 for c in self._node_color.values() if c == color)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every arc incident to it."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for head, colors in self._succ[node].items():
            self._arc_count -= len(colors)
            for c in colors:
                self._color_counts[c] -= 1
            del self._pred[head][node]
        for tail, colors in self._pred[node].items():
            if tail != node:  # self-loop colors already subtracted above
                self._arc_count -= len(colors)
                for c in colors:
                    self._color_counts[c] -= 1
                del self._succ[tail][node]
        del self._succ[node]
        del self._pred[node]
        del self._ids[node]
        del self._node_color[node]
        del self._node_attrs[node]

    def _stored(self, node: Node) -> Node:
        """The stored object for ``node``, adding it uncolored if new."""
        stored = self._ids.get(node)
        if stored is None:
            self.add_node(node)
            return node
        return stored

    # ------------------------------------------------------------------
    # arc API
    # ------------------------------------------------------------------
    def add_arc(self, tail: Node, head: Node, color: Any) -> bool:
        """Add the arc ``tail -> head`` with ``color``.

        Endpoints are created on demand (with no color).  Returns ``True``
        if the arc was new and ``False`` if an identical arc already
        existed.  Arc colors must not be ``None`` — an uncolored arc has
        no meaning in the paper's model.
        """
        if color is None:
            raise ValueError("arc color must not be None")
        tail = self._stored(tail)
        head = self._stored(head)
        row = self._succ[tail]
        colors = row.get(head)
        if colors is None:
            colors = _interned(frozenset((color,)))
        elif color in colors:
            return False
        else:
            colors = _interned(colors | {color})
        row[head] = colors
        self._pred[head][tail] = colors
        self._arc_count += 1
        self._color_counts[color] = self._color_counts.get(color, 0) + 1
        return True

    def add_arcs(self, pairs: Iterable[tuple[Node, Node]], color: Any) -> int:
        """Bulk :meth:`add_arc` for one color; returns the number added.

        Skips per-arc method dispatch — the Table-1 sweep inserts up to
        ~600k trading arcs per probability setting, where the fast path
        matters.  Endpoints are created on demand (uncolored).
        """
        if color is None:
            raise ValueError("arc color must not be None")
        succ = self._succ
        pred = self._pred
        stored = self._ids.get
        single = _interned(frozenset((color,)))
        added = 0
        for tail, head in pairs:
            tail_id = stored(tail)
            if tail_id is None:
                self.add_node(tail)
                tail_id = tail
            head_id = stored(head)
            if head_id is None:
                self.add_node(head)
                head_id = head
            row = succ[tail_id]
            colors = row.get(head_id)
            if colors is None:
                colors = single
            elif color in colors:
                continue
            else:
                colors = _interned(colors | single)
            row[head_id] = colors
            pred[head_id][tail_id] = colors
            added += 1
        self._arc_count += added
        if added:
            self._color_counts[color] = self._color_counts.get(color, 0) + added
        return added

    def has_arc(self, tail: Node, head: Node, color: Any = None) -> bool:
        colors = self._succ.get(tail, {}).get(head)
        if not colors:
            return False
        return True if color is None else color in colors

    def arc_colors(self, tail: Node, head: Node) -> frozenset[Any]:
        """Return the (possibly empty) set of colors on ``tail -> head``."""
        return self._succ.get(tail, {}).get(head, _NO_COLORS)

    def remove_arc(self, tail: Node, head: Node, color: Any = None) -> None:
        """Remove one colored arc, or all arcs ``tail -> head`` if no color."""
        colors = self._succ.get(tail, {}).get(head)
        if not colors or (color is not None and color not in colors):
            raise ArcNotFoundError(tail, head, color)
        if color is None:
            for c in colors:
                self._color_counts[c] -= 1
            removed = len(colors)
            del self._succ[tail][head]
            del self._pred[head][tail]
            self._arc_count -= removed
            return
        remaining = colors - {color}
        if remaining:
            remaining = _interned(remaining)
            self._succ[tail][head] = remaining
            self._pred[head][tail] = remaining
        else:
            del self._succ[tail][head]
            del self._pred[head][tail]
        self._arc_count -= 1
        self._color_counts[color] -= 1

    def encoded_out_rows(
        self, order: Sequence[Node], index: Mapping[Node, int], color: Any
    ) -> tuple[list[int], list[int]]:
        """Bulk successor extraction for CSR freezing: ``(counts, heads)``.

        ``counts[i]`` is the ``color`` out-degree of ``order[i]`` and
        ``heads`` concatenates every row's successor ids (under
        ``index``) in ascending id order.  ``order`` must contain graph
        nodes and ``index`` must cover every successor.  One bulk call
        per color replaces a per-arc iterator protocol round-trip, which
        is what dominates freezing a large graph.
        """
        succ = self._succ
        counts = [0] * len(order)
        heads: list[int] = []
        extend = heads.extend
        for i, node in enumerate(order):
            nbrs = succ[node]
            if not nbrs:
                continue
            row = [index[h] for h, cs in nbrs.items() if color in cs]
            if row:
                row.sort()
                counts[i] = len(row)
                extend(row)
        return counts, heads

    def arcs(self, color: Any = None) -> Iterator[tuple[Node, Node, Any]]:
        """Iterate ``(tail, head, color)`` triples."""
        for tail, heads in self._succ.items():
            for head, colors in heads.items():
                for c in colors:
                    if color is None or c == color:
                        yield (tail, head, c)

    def number_of_arcs(self, color: Any = None) -> int:
        if color is None:
            return self._arc_count
        return self._color_counts.get(color, 0)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def successors(self, node: Node, color: Any = None) -> Iterator[Node]:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        if color is None:
            return iter(self._succ[node])
        return (h for h, cs in self._succ[node].items() if color in cs)

    def predecessors(self, node: Node, color: Any = None) -> Iterator[Node]:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        if color is None:
            return iter(self._pred[node])
        return (t for t, cs in self._pred[node].items() if color in cs)

    def out_arcs(self, node: Node) -> Iterator[tuple[Node, Node, Any]]:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for head, colors in self._succ[node].items():
            for c in colors:
                yield (node, head, c)

    def in_arcs(self, node: Node) -> Iterator[tuple[Node, Node, Any]]:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        for tail, colors in self._pred[node].items():
            for c in colors:
                yield (tail, node, c)

    def out_degree(self, node: Node, color: Any = None) -> int:
        if node not in self._succ:
            raise NodeNotFoundError(node)
        if color is None:
            return sum(len(cs) for cs in self._succ[node].values())
        return sum(1 for cs in self._succ[node].values() if color in cs)

    def in_degree(self, node: Node, color: Any = None) -> int:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        if color is None:
            return sum(len(cs) for cs in self._pred[node].values())
        return sum(1 for cs in self._pred[node].values() if color in cs)

    def degree(self, node: Node, color: Any = None) -> int:
        return self.in_degree(node, color) + self.out_degree(node, color)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node, self._node_color[node], **self._node_attrs[node])
        for tail, head, color in self.arcs():
            clone.add_arc(tail, head, color)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Induced subgraph on ``nodes`` (unknown ids are ignored)."""
        keep = {n for n in nodes if n in self._succ}
        sub = DiGraph()
        for node in keep:
            sub.add_node(node, self._node_color[node], **self._node_attrs[node])
        for tail in keep:
            for head, colors in self._succ[tail].items():
                if head in keep:
                    for c in colors:
                        sub.add_arc(tail, head, c)
        return sub

    def color_subgraph(self, arc_color: Any, *, keep_all_nodes: bool = True) -> "DiGraph":
        """Subgraph containing only arcs of ``arc_color``.

        With ``keep_all_nodes`` (the default) every node survives even if
        isolated, which matches how Algorithm 1 splits the TPIIN edge list
        into an antecedent part and a trading part over the same node set.
        """
        sub = DiGraph()
        if keep_all_nodes:
            for node in self._succ:
                sub.add_node(node, self._node_color[node], **self._node_attrs[node])
        for tail, head, color in self.arcs(arc_color):
            if not keep_all_nodes:
                sub.add_node(tail, self._node_color[tail])
                sub.add_node(head, self._node_color[head])
            sub.add_arc(tail, head, color)
        return sub

    def reversed(self) -> "DiGraph":
        """A copy with every arc direction flipped (colors preserved)."""
        rev = DiGraph()
        for node in self._succ:
            rev.add_node(node, self._node_color[node], **self._node_attrs[node])
        for tail, head, color in self.arcs():
            rev.add_arc(head, tail, color)
        return rev

    # ------------------------------------------------------------------
    # pickling (__slots__ classes need explicit state support)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        _reintern(self._succ)
        _reintern(self._pred)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DiGraph nodes={self.number_of_nodes()} "
            f"arcs={self.number_of_arcs()}>"
        )


class UnGraph:
    """A minimal undirected graph with colored edges.

    Used for the interdependence network *G1*, whose kinship and
    interlocking links are unidirectional (symmetric) in the paper.  The
    fusion pipeline contracts these edges away, so only a small API is
    needed: add/query/iterate and neighborhood access.
    """

    __slots__ = ("_adj", "_ids", "_node_color", "_edge_count")

    def __init__(self) -> None:
        # _adj[u][v] and _adj[v][u] hold the same interned color set;
        # _ids[n] is the stored object for node n, as in DiGraph.
        self._adj: dict[Node, dict[Node, frozenset[Any]]] = {}
        self._ids: dict[Node, Node] = {}
        self._node_color: dict[Node, Any] = {}
        self._edge_count = 0

    def add_node(self, node: Node, color: Any = None) -> None:
        if node not in self._adj:
            self._adj[node] = {}
            self._ids[node] = node
            self._node_color[node] = color
        elif color is not None:
            existing = self._node_color[node]
            if existing is not None and existing != color:
                raise ValueError(
                    f"node {node!r} already has color {existing!r}; "
                    f"cannot recolor to {color!r}"
                )
            self._node_color[node] = color

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def node_color(self, node: Node) -> Any:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._node_color[node]

    def nodes(self) -> Iterator[Node]:
        return iter(self._adj)

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def add_edge(self, u: Node, v: Node, color: Any) -> bool:
        """Add the undirected edge ``{u, v}``; returns ``True`` if new."""
        if color is None:
            raise ValueError("edge color must not be None")
        if u == v:
            raise ValueError(f"self-loop on {u!r}: interdependence links join distinct persons")
        self.add_node(u)
        self.add_node(v)
        u = self._ids[u]
        v = self._ids[v]
        row = self._adj[u]
        colors = row.get(v)
        if colors is None:
            colors = _interned(frozenset((color,)))
        elif color in colors:
            return False
        else:
            colors = _interned(colors | {color})
        row[v] = colors
        self._adj[v][u] = colors
        self._edge_count += 1
        return True

    def has_edge(self, u: Node, v: Node, color: Any = None) -> bool:
        colors = self._adj.get(u, {}).get(v)
        if not colors:
            return False
        return True if color is None else color in colors

    def edge_colors(self, u: Node, v: Node) -> frozenset[Any]:
        return self._adj.get(u, {}).get(v, _NO_COLORS)

    def edges(self, color: Any = None) -> Iterator[tuple[Node, Node, Any]]:
        """Iterate each undirected edge once as ``(u, v, color)``."""
        seen: set[frozenset[Node]] = set()
        for u, neighbors in self._adj.items():
            for v, colors in neighbors.items():
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                for c in colors:
                    if color is None or c == color:
                        yield (u, v, c)

    def number_of_edges(self, color: Any = None) -> int:
        if color is None:
            return self._edge_count
        return sum(1 for _ in self.edges(color))

    def neighbors(self, node: Node) -> Iterator[Node]:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return sum(len(cs) for cs in self._adj[node].values())

    def connected_components(self) -> list[set[Node]]:
        """Connected components (each component is a set of nodes)."""
        seen: set[Node] = set()
        components: list[set[Node]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        component.add(v)
                        stack.append(v)
            components.append(component)
        return components

    def __getstate__(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        _reintern(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<UnGraph nodes={self.number_of_nodes()} "
            f"edges={self.number_of_edges()}>"
        )
