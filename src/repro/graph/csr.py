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
* the ``decode_table`` maps ids back to the original node objects,
  and the buffers are plain :mod:`array` arrays that numpy views
  without a copy; the incremental detector indexes them element by
  element.

A frozen graph is immutable; re-freeze after mutating the source.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
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

    Construction goes through :meth:`freeze`.  Queries work in *id
    space* (dense ints); :meth:`encode` and :attr:`decode_table`
    translate at the boundary.
    """

    __slots__ = (
        "_decode",
        "_encode",
        "_colors",
        "_out_offsets",
        "_out_targets",
        "_in_offsets",
        "_in_targets",
    )

    def __init__(
        self,
        decode: tuple[Node, ...],
        colors: tuple[Any, ...],
        out_offsets: dict[Any, IntBuffer],
        out_targets: dict[Any, IntBuffer],
        in_offsets: dict[Any, IntBuffer],
        in_targets: dict[Any, IntBuffer],
    ) -> None:
        self._decode = decode
        self._encode: dict[Node, int] = {n: i for i, n in enumerate(decode)}
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
            palette,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        )

    # ------------------------------------------------------------------
    # queries
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

    def out_adjacency(self, color: Any) -> tuple[IntBuffer, IntBuffer]:
        """The forward ``(offsets, targets)`` pair of one color partition.

        Successors of id ``u`` are ``targets[offsets[u]:offsets[u + 1]]``,
        sorted ascending (= ``str``-sorted original order).
        """
        return self._out_offsets[self._check_color(color)], self._out_targets[color]

    def in_adjacency(self, color: Any) -> tuple[IntBuffer, IntBuffer]:
        """The reverse ``(offsets, targets)`` pair of one color partition."""
        return self._in_offsets[self._check_color(color)], self._in_targets[color]

    def __len__(self) -> int:
        return len(self._decode)

    def number_of_arcs(self, color: Any = None) -> int:
        if color is None:
            return sum(len(t) for t in self._out_targets.values())
        return len(self._out_targets[self._check_color(color)])

    # ------------------------------------------------------------------
    def _check_color(self, color: Any) -> Any:
        if color not in self._out_offsets:
            raise ValueError(
                f"arc color {color!r} was not frozen into this CSRGraph "
                f"(frozen partitions: {list(self._colors)!r})"
            )
        return color

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
