"""Frozen, interned, color-partitioned CSR adjacency (the mining kernel).

The hash-based :class:`~repro.graph.digraph.DiGraph` is the right
structure while a network is being *built* — arcs arrive in any order,
colors accumulate per endpoint pair — but it is the wrong structure to
*mine*: Algorithm 2's DFS re-reads each node's successor dictionary on
every visit and pays a string-keyed sort per step.

:class:`CSRGraph` freezes a finished graph into compressed sparse rows:

* nodes are **interned** to dense ``int`` ids, assigned in ``str``-sorted
  order so that integer order reproduces the ``sorted(..., key=str)``
  determinism of the hash-based traversals bit for bit;
* adjacency is **partitioned by arc color** — one forward and one
  reverse ``(offsets, targets)`` array pair per color, each row sorted
  once at freeze time, so a DFS step is an index range scan with no
  hashing, no sorting and no per-visit allocation;
* the ``decode`` table maps ids back to the original node objects, and
  the buffers are plain :mod:`array` arrays that numpy views without a
  copy.

A frozen graph is immutable; re-freeze after mutating the source.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from typing import Any, TypeAlias

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph, Node

__all__ = ["CSRGraph", "IntBuffer"]

# 64-bit signed targets/offsets: node counts and arc counts both fit with
# room to spare, and 'q' slices exchange cleanly with plain ints.
_TYPECODE = "q"

#: A CSR buffer: an ``array('q')`` of offsets or targets.
IntBuffer: TypeAlias = "array[int]"


class CSRGraph:
    """An immutable CSR snapshot of a colored :class:`DiGraph`.

    Construction goes through :meth:`freeze`.  Every query is available
    both in *id space* (dense ints, for kernels) and in *node space*
    (original identifiers, for tests and round-trips).
    """

    __slots__ = (
        "_decode",
        "_encode",
        "_node_colors",
        "_colors",
        "_out_offsets",
        "_out_targets",
        "_in_offsets",
        "_in_targets",
    )

    def __init__(
        self,
        decode: tuple[Node, ...],
        node_colors: tuple[Any, ...],
        colors: tuple[Any, ...],
        out_offsets: dict[Any, IntBuffer],
        out_targets: dict[Any, IntBuffer],
        in_offsets: dict[Any, IntBuffer],
        in_targets: dict[Any, IntBuffer],
    ) -> None:
        self._decode = decode
        self._encode: dict[Node, int] = {n: i for i, n in enumerate(decode)}
        self._node_colors = node_colors
        self._colors = colors
        self._out_offsets = out_offsets
        self._out_targets = out_targets
        self._in_offsets = in_offsets
        self._in_targets = in_targets

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls, graph: DiGraph, colors: Sequence[Any] | None = None
    ) -> "CSRGraph":
        """Intern ``graph`` into a frozen CSR snapshot.

        ``colors`` selects (and orders) the arc-color partitions; by
        default every color present in the graph is kept, in
        ``str``-sorted order.  Arcs of unselected colors are dropped —
        freezing the influence partition alone is how the path engines
        avoid paying for trading arcs they never walk.
        """
        decode = tuple(sorted(graph.nodes(), key=str))
        encode = {n: i for i, n in enumerate(decode)}
        node_colors = tuple(graph.node_color(n) for n in decode)
        if colors is None:
            palette = tuple(sorted({c for _, _, c in graph.arcs()}, key=str))
        else:
            palette = tuple(colors)

        n = len(decode)
        node_range = np.arange(n, dtype=np.int64)
        out_offsets: dict[Any, IntBuffer] = {}
        out_targets: dict[Any, IntBuffer] = {}
        in_offsets: dict[Any, IntBuffer] = {}
        in_targets: dict[Any, IntBuffer] = {}
        for color in palette:
            # One bulk pass yields the out-CSR directly; the in-CSR is a
            # stable (head, tail) re-sort of the same arc list in numpy,
            # skipping a second per-arc Python pass entirely.
            counts, flat = graph.encoded_out_rows(decode, encode, color)
            deg = np.asarray(counts, dtype=np.int64)
            heads = np.asarray(flat, dtype=np.int64)
            out_offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=out_offs[1:])
            tails = np.repeat(node_range, deg)
            in_deg = np.bincount(heads, minlength=n)
            in_offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(in_deg, out=in_offs[1:])
            in_tgts = tails[np.lexsort((tails, heads))]
            out_offsets[color] = _from_int64(out_offs)
            out_targets[color] = _from_int64(heads)
            in_offsets[color] = _from_int64(in_offs)
            in_targets[color] = _from_int64(in_tgts)
        return cls(
            decode,
            node_colors,
            palette,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        )

    # ------------------------------------------------------------------
    # id space (kernel API)
    # ------------------------------------------------------------------
    @property
    def decode_table(self) -> tuple[Node, ...]:
        """Dense id -> original node; index directly in hot loops."""
        return self._decode

    def encode(self, node: Node) -> int:
        """Original node -> dense id."""
        try:
            return self._encode[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def decode(self, node_id: int) -> Node:
        return self._decode[node_id]

    def out_adjacency(self, color: Any) -> tuple[IntBuffer, IntBuffer]:
        """The forward ``(offsets, targets)`` pair of one color partition.

        Successors of id ``u`` are ``targets[offsets[u]:offsets[u + 1]]``,
        sorted ascending (= ``str``-sorted original order).
        """
        return self._out_offsets[self._check_color(color)], self._out_targets[color]

    def in_adjacency(self, color: Any) -> tuple[IntBuffer, IntBuffer]:
        """The reverse ``(offsets, targets)`` pair of one color partition."""
        return self._in_offsets[self._check_color(color)], self._in_targets[color]

    def out_degree_id(self, node_id: int, color: Any = None) -> int:
        if color is None:
            return sum(
                o[node_id + 1] - o[node_id] for o in self._out_offsets.values()
            )
        offsets = self._out_offsets[self._check_color(color)]
        return offsets[node_id + 1] - offsets[node_id]

    def in_degree_id(self, node_id: int, color: Any = None) -> int:
        if color is None:
            return sum(
                o[node_id + 1] - o[node_id] for o in self._in_offsets.values()
            )
        offsets = self._in_offsets[self._check_color(color)]
        return offsets[node_id + 1] - offsets[node_id]

    def root_ids(self, color: Any) -> list[int]:
        """Ids with zero in-degree in one color partition, ascending."""
        offsets = self._in_offsets[self._check_color(color)]
        return [u for u in range(len(self._decode)) if offsets[u] == offsets[u + 1]]

    def node_color_id(self, node_id: int) -> Any:
        return self._node_colors[node_id]

    # ------------------------------------------------------------------
    # node space (compatibility / test API)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._decode)

    def __contains__(self, node: Node) -> bool:
        return node in self._encode

    def number_of_nodes(self) -> int:
        return len(self._decode)

    def nodes(self) -> Iterator[Node]:
        return iter(self._decode)

    def node_color(self, node: Node) -> Any:
        return self._node_colors[self.encode(node)]

    @property
    def arc_color_domain(self) -> tuple[Any, ...]:
        """The frozen color partitions, in partition order."""
        return self._colors

    def number_of_arcs(self, color: Any = None) -> int:
        if color is None:
            return sum(len(t) for t in self._out_targets.values())
        return len(self._out_targets[self._check_color(color)])

    def successors(self, node: Node, color: Any) -> Iterator[Node]:
        offsets, targets = self.out_adjacency(color)
        u = self.encode(node)
        decode = self._decode
        return (decode[targets[i]] for i in range(offsets[u], offsets[u + 1]))

    def predecessors(self, node: Node, color: Any) -> Iterator[Node]:
        offsets, targets = self.in_adjacency(color)
        u = self.encode(node)
        decode = self._decode
        return (decode[targets[i]] for i in range(offsets[u], offsets[u + 1]))

    def out_degree(self, node: Node, color: Any = None) -> int:
        return self.out_degree_id(self.encode(node), color)

    def in_degree(self, node: Node, color: Any = None) -> int:
        return self.in_degree_id(self.encode(node), color)

    def has_arc(self, tail: Node, head: Node, color: Any = None) -> bool:
        t = self.encode(tail)
        h = self.encode(head)
        palette = self._colors if color is None else (self._check_color(color),)
        for c in palette:
            offsets, targets = self._out_offsets[c], self._out_targets[c]
            lo, hi = offsets[t], offsets[t + 1]
            i = bisect_left(targets, h, lo, hi)
            if i < hi and targets[i] == h:
                return True
        return False

    def arc_colors(self, tail: Node, head: Node) -> frozenset[Any]:
        """Frozen colors present on ``tail -> head`` (parallel-arc aware)."""
        return frozenset(c for c in self._colors if self.has_arc(tail, head, c))

    def to_digraph(self) -> DiGraph:
        """Thaw back into a mutable :class:`DiGraph` (round-trip check)."""
        graph = DiGraph()
        for node, color in zip(self._decode, self._node_colors):
            graph.add_node(node, color)
        decode = self._decode
        for c in self._colors:
            offsets, targets = self._out_offsets[c], self._out_targets[c]
            for u in range(len(decode)):
                for i in range(offsets[u], offsets[u + 1]):
                    graph.add_arc(decode[u], decode[targets[i]], c)
        return graph

    @property
    def nbytes(self) -> int:
        """Approximate buffer payload (offset + target arrays only)."""
        buffers = (
            list(self._out_offsets.values())
            + list(self._out_targets.values())
            + list(self._in_offsets.values())
            + list(self._in_targets.values())
        )
        return sum(a.itemsize * len(a) for a in buffers)

    # ------------------------------------------------------------------
    def _check_color(self, color: Any) -> Any:
        if color not in self._out_offsets:
            raise ValueError(
                f"arc color {color!r} was not frozen into this CSRGraph "
                f"(frozen partitions: {list(self._colors)!r})"
            )
        return color

    # __slots__ classes need explicit pickle support.
    def __getstate__(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRGraph nodes={len(self._decode)} "
            f"arcs={self.number_of_arcs()} "
            f"partitions={[str(c) for c in self._colors]}>"
        )


def _from_int64(values: "np.ndarray") -> "array[int]":
    """Copy a contiguous int64 numpy array into the canonical buffer type."""
    out = array(_TYPECODE)
    out.frombytes(values.tobytes())
    return out
