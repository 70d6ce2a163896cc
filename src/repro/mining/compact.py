"""Whole-graph mining plan, compact mine records, and lazy groups.

The parallel engine never slices the TPIIN into
per-component :class:`~repro.graph.digraph.DiGraph` objects.  Instead it
freezes the *whole* graph once (:class:`~repro.graph.csr.CSRGraph`) and
drives the kernel with the structures in this module:

* :class:`MiningPlan` — per-node component labels (influence weak
  connectivity, ordinals in the faithful segmentation's first-seen
  order), the trading adjacency pre-filtered to intra-component arcs,
  and per-component *work estimates*: the exact DFS tree size via a
  path-count DP over the acyclic antecedent network, which sizes the
  kernel's buffers and feeds the ``plan`` span's ``estimated_work``;
* :class:`CompactMine` — the raw mining outcome as flat arrays: the DFS
  prefix forest (``parent``/``node``/``root``) plus one
  ``(tree index, target)`` pair per first-trading-arc emission, kept
  as arrays instead of millions of group objects;
* :func:`count_mine` — every Table-1 tally (trails, matched, circles,
  suspicious arcs) straight off the arrays, without materializing a
  single :class:`~repro.mining.groups.SuspiciousGroup`;
* :class:`LazyGroups` / the internal group store — a sized
  ``Sequence[SuspiciousGroup]`` view that materializes the decoded
  groups once, on first access, from the same arrays.

Counting and materialization follow the Appendix-B matcher's emission
semantics (one matched group per same-root prefix ending at an
emission's target, circles deduped on their cycle), so the group *set*
(the cross-engine contract) and every count agree with the faithful
engine.  Both read one matcher index per mine, built by whichever asks
first and kept on the :class:`CompactMine`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import NotADagError
from repro.graph.csr import CSRGraph, IntBuffer
from repro.graph.digraph import Node
from repro.graph.gcpause import gc_paused
from repro.mining.groups import (
    _SET_KIND,
    _SET_SUPPORT,
    _SET_TRADING,
    GroupKind,
    SuspiciousGroup,
)
from repro.model.colors import EColor

__all__ = [
    "CompactCounts",
    "CompactMine",
    "as_int64",
    "LazyGroups",
    "MiningPlan",
    "build_plan",
    "count_mine",
    "make_group_store",
    "unpack_arcs",
]

_MATCHED = GroupKind.MATCHED
_CIRCLE = GroupKind.CIRCLE

#: Per-node clip for the path-count DP: conglomerate DAGs can hold more
#: simple paths than atoms in the observable universe; above this the
#: estimate only needs to read as "enormous".
_EST_CLIP = 1.0e18


def as_int64(buffer: IntBuffer) -> np.ndarray:
    """Zero-copy ``int64`` view over a CSR ``array('q')`` buffer."""
    return np.frombuffer(buffer, dtype=np.int64)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MiningPlan:
    """Component structure + work estimates of one frozen TPIIN.

    All arrays are plain ``numpy`` data, small next to the adjacency.
    """

    #: Node count of the frozen graph.
    n_nodes: int
    #: Influence weakly-connected component count (all of them, trivial
    #: included) — the faithful engine's ``subtpiin_count``.
    n_components: int
    #: Per node id, the component ordinal.  Ordinals follow the faithful
    #: segmentation order: first appearance in graph insertion order.
    comp_id: np.ndarray
    #: Per component, its node count.
    comp_sizes: np.ndarray
    #: Per component, its intra-component trading-arc count (zero means
    #: a trivial component the engines skip).
    trading_by_comp: np.ndarray
    #: CSR over the *intra-component* trading arcs only (the arcs the
    #: miner may emit); cross-component arcs are dropped here and
    #: tallied in :attr:`cross_count`.
    intra_offsets: np.ndarray
    intra_targets: np.ndarray
    #: Trading arcs whose endpoints fall in different components.
    cross_count: int
    #: Per component, the predicted DFS tree size (float64), exact below
    #: the clip.
    est_tree: np.ndarray
    #: Per component, predicted tree size + emission count (the
    #: ``plan`` span's ``estimated_work``).
    est_work: np.ndarray

    def nontrivial(self) -> np.ndarray:
        """Ordinals of components with >= 1 intra trading arc, ascending."""
        return np.flatnonzero(self.trading_by_comp > 0)


def build_plan(csr: CSRGraph, order_nodes: Iterable[Node]) -> MiningPlan:
    """Plan a whole-graph mining run.

    ``order_nodes`` must iterate the source graph's nodes in insertion
    order — component ordinals are assigned first-seen over it, which
    reproduces :func:`~repro.graph.traversal.weakly_connected_components`
    (and hence the faithful engine's subTPIIN order) exactly.

    Raises :class:`~repro.errors.NotADagError` when the antecedent
    network has a directed cycle: the frontier kernel walks it without
    an on-path guard, which only a DAG (Property 1) allows.
    """
    n = len(csr)
    infl_offs = as_int64(csr.out_adjacency(EColor.INFLUENCE)[0])
    infl_tgts = as_int64(csr.out_adjacency(EColor.INFLUENCE)[1])
    tr_offs = as_int64(csr.out_adjacency(EColor.TRADING)[0])
    tr_tgts = as_int64(csr.out_adjacency(EColor.TRADING)[1])

    # --- influence weak connectivity: union-find with path halving ----
    uf = list(range(n))
    offs = infl_offs.tolist()
    tgts = infl_tgts.tolist()
    for u in range(n):
        for i in range(offs[u], offs[u + 1]):
            a, b = u, tgts[i]
            while uf[a] != a:
                uf[a] = uf[uf[a]]
                a = uf[a]
            while uf[b] != b:
                uf[b] = uf[uf[b]]
                b = uf[b]
            if a != b:
                uf[max(a, b)] = min(a, b)

    def _find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # Ordinals in faithful first-seen order over graph insertion order.
    comp_id = np.empty(n, dtype=np.int64)
    ordinal_of_root: dict[int, int] = {}
    for node in order_nodes:
        u = csr.encode(node)
        r = _find(u)
        ordinal = ordinal_of_root.setdefault(r, len(ordinal_of_root))
        comp_id[u] = ordinal
    n_components = len(ordinal_of_root)
    comp_sizes = np.bincount(comp_id, minlength=n_components)

    # --- trading split: intra-component CSR + cross count -------------
    tr_deg = np.diff(tr_offs)
    tr_tails = np.repeat(np.arange(n, dtype=np.int64), tr_deg)
    intra_mask = comp_id[tr_tails] == comp_id[tr_tgts]
    intra_targets = tr_tgts[intra_mask].copy()
    intra_counts = np.bincount(tr_tails[intra_mask], minlength=n)
    intra_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(intra_counts, out=intra_offsets[1:])
    cross_count = int(tr_tgts.size - intra_targets.size)
    trading_by_comp = np.bincount(
        comp_id[tr_tails[intra_mask]], minlength=n_components
    )

    # --- Kahn: topological order; leftovers mean a cycle --------------
    indeg = np.bincount(infl_tgts, minlength=n).tolist()
    topo = [u for u in range(n) if indeg[u] == 0]
    head = 0
    while head < len(topo):
        u = topo[head]
        head += 1
        for i in range(offs[u], offs[u + 1]):
            v = tgts[i]
            indeg[v] -= 1
            if indeg[v] == 0:
                topo.append(v)
    if len(topo) != n:
        raise NotADagError(
            "antecedent network contains a directed cycle; run SCC "
            "contraction (repro.fusion) before building the TPIIN"
        )

    # --- path-count DP (reverse topological) --------------------------
    # tree[u] = DFS tree size rooted at u = 1 + sum(tree[succ]);
    # emit[u] = emissions in that tree = intra_deg(u) + sum(emit[succ]).
    # Exact on a DAG: the DFS never skips an arc there.
    tree = [1.0] * n
    emit = intra_counts.astype(np.float64).tolist()
    clip = _EST_CLIP
    for u in reversed(topo):
        t_u = 1.0
        e_u = emit[u]
        for i in range(offs[u], offs[u + 1]):
            v = tgts[i]
            t_u += tree[v]
            e_u += emit[v]
        tree[u] = t_u if t_u < clip else clip
        emit[u] = e_u if e_u < clip else clip

    roots = np.flatnonzero(np.bincount(infl_tgts, minlength=n) == 0)
    tree_arr = np.asarray(tree)
    emit_arr = np.asarray(emit)
    est_tree = np.zeros(n_components, dtype=np.float64)
    est_emit = np.zeros(n_components, dtype=np.float64)
    np.add.at(est_tree, comp_id[roots], tree_arr[roots])
    np.add.at(est_emit, comp_id[roots], emit_arr[roots])
    est_work = est_tree + est_emit

    return MiningPlan(
        n_nodes=n,
        n_components=n_components,
        comp_id=comp_id,
        comp_sizes=comp_sizes,
        trading_by_comp=trading_by_comp,
        intra_offsets=intra_offsets,
        intra_targets=intra_targets,
        cross_count=cross_count,
        est_tree=est_tree,
        est_work=est_work,
    )


# ----------------------------------------------------------------------
# the mine record
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _MatcherIndex:
    """The Appendix-B matcher's per-root prefix index over one mine.

    ``order`` lists the tree indices sorted by their ``(root, node)``
    key; the supports of emission ``e`` are ``order[lo[e]:hi[e]]``, the
    tree nodes under ``e``'s root labelled with its target.  ``circle``
    flags the emissions whose target lies on their own path: they make
    circle groups, which take no support.
    """

    circle: np.ndarray
    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(slots=True)
class CompactMine:
    """Flat-array outcome of mining a set of components.

    ``parent``/``node``/``root`` describe the DFS prefix forest: entry
    ``i`` is one tree node — one registered influence prefix — holding
    its parent tree index (``-1`` at a root), its graph node id, and its
    root's node id.  Parents always precede children, so prefix tuples
    rebuild in one forward pass.  ``emit_tree``/``emit_target`` list the
    first-trading-arc emissions as ``(tree index, target node id)``.
    ``rule1_by_comp`` counts the pure-influence trails per component
    (Rule 1 fires), which the kernel tallies directly.
    """

    parent: np.ndarray
    node: np.ndarray
    root: np.ndarray
    emit_tree: np.ndarray
    emit_target: np.ndarray
    rule1_by_comp: np.ndarray
    #: Built by :func:`_matcher_index` on first use, then shared by
    #: :func:`count_mine` and the group decode.
    _index: _MatcherIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _circle_flags(mine: CompactMine) -> np.ndarray:
    """Per emission, whether the trading target lies on the emitting path.

    Lockstep ancestor walk: every emission climbs its prefix chain one
    parent per step, comparing labels against its target; lanes retire
    on a hit or at the root, so the walk is bounded by the tree depth
    and touches only still-live lanes.
    """
    flags = np.zeros(len(mine.emit_tree), dtype=bool)
    if not len(mine.emit_tree):
        return flags
    lanes = np.arange(len(mine.emit_tree))
    cursor = mine.emit_tree.copy()
    target = mine.emit_target
    node = mine.node
    parent = mine.parent
    while lanes.size:
        hit = node[cursor] == target[lanes]
        flags[lanes[hit]] = True
        cursor = parent[cursor]
        alive = ~hit & (cursor >= 0)
        lanes = lanes[alive]
        cursor = cursor[alive]
    return flags


def _matcher_index(mine: CompactMine, n_nodes: int) -> _MatcherIndex:
    """``mine``'s matcher index, computed on the first call and kept.

    The supports of emission ``(u, t)`` are the tree nodes whose key
    equals ``root(u) * n + t`` — one contiguous run of the tree indices
    stably sorted by ``root * n + node``, found by two binary searches.
    """
    index = mine._index
    if index is None:
        keys = mine.root * n_nodes + mine.node
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        queries = mine.root[mine.emit_tree] * n_nodes + mine.emit_target
        index = mine._index = _MatcherIndex(
            circle=_circle_flags(mine),
            order=order,
            lo=np.searchsorted(sorted_keys, queries, side="left"),
            hi=np.searchsorted(sorted_keys, queries, side="right"),
        )
    return index


# ----------------------------------------------------------------------
# counting (no group objects)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CompactCounts:
    """Per-component tallies of one :class:`CompactMine`."""

    trails_by_comp: np.ndarray
    matched_by_comp: np.ndarray
    circle_by_comp: np.ndarray
    #: Distinct trading arcs behind >= 1 group, as sorted unique packed
    #: ``tail * n_nodes + head`` int64 keys (see :func:`unpack_arcs`).
    suspicious_arcs: np.ndarray


def count_mine(mine: CompactMine, plan: MiningPlan) -> CompactCounts:
    """All tallies straight off the arrays.

    Matched groups per emission equal the emission root's tree-node
    count at the target label (the matcher's prefix-index size);
    circle emissions dedup on their ancestor-walk node tuple, which is
    in bijection with the cycle's forward node sequence.
    """
    n_components = plan.n_components
    comp_id = plan.comp_id
    trails = mine.rule1_by_comp.copy()
    matched = np.zeros(n_components, dtype=np.int64)
    circles = np.zeros(n_components, dtype=np.int64)
    n_emit = len(mine.emit_tree)
    if not n_emit:
        return CompactCounts(
            trails, matched, circles, np.zeros(0, dtype=np.int64)
        )

    emit_node = mine.node[mine.emit_tree]
    emit_comp = comp_id[emit_node]
    trails += np.bincount(emit_comp, minlength=n_components)

    index = _matcher_index(mine, plan.n_nodes)
    circle = index.circle
    noncircle = np.flatnonzero(~circle)
    supports = (index.hi - index.lo)[noncircle]
    np.add.at(matched, emit_comp[noncircle], supports)

    # Circle dedup: reversed parent-walk keys, one python walk per
    # (rare) circle emission.
    node_l = mine.node.tolist()
    parent_l = mine.parent.tolist()
    seen: set[tuple[int, ...]] = set()
    circle_lanes = np.flatnonzero(circle)
    emit_tree_l = mine.emit_tree.tolist()
    emit_target_l = mine.emit_target.tolist()
    for lane in circle_lanes.tolist():
        cursor = emit_tree_l[lane]
        target = emit_target_l[lane]
        walk = [node_l[cursor]]
        while node_l[cursor] != target:
            cursor = parent_l[cursor]
            walk.append(node_l[cursor])
        key = tuple(walk)
        if key not in seen:
            seen.add(key)
            circles[comp_id[target]] += 1

    # Suspicious arcs, vectorized: circle emissions always back a group;
    # non-circle ones only with at least one support.
    grouped = np.concatenate((noncircle[supports > 0], circle_lanes))
    arcs = np.unique(
        emit_node[grouped] * plan.n_nodes + mine.emit_target[grouped]
    )
    return CompactCounts(trails, matched, circles, arcs)


def unpack_arcs(keys: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed ``tail * n_nodes + head`` arc keys back to id pairs."""
    return keys // n_nodes, keys % n_nodes


# ----------------------------------------------------------------------
# lazy materialization
# ----------------------------------------------------------------------


class _GroupStore:
    """Materialize-once holder of every mined group, keyed by component.

    The full pass over the prefix forest runs at most once per store —
    on the first access through any :class:`LazyGroups` view — and its
    result is shared by all views (top-level and per-subTPIIN).
    """

    __slots__ = ("_mine", "_decode", "_comp_id", "_n_nodes", "_by_comp")

    def __init__(
        self,
        mine: CompactMine,
        decode: tuple[Node, ...],
        comp_id: np.ndarray,
    ) -> None:
        self._mine = mine
        self._decode = decode
        self._comp_id = comp_id
        self._n_nodes = len(decode)
        self._by_comp: dict[int, list[SuspiciousGroup]] | None = None

    def groups_for(self, comp: int | None) -> list[SuspiciousGroup]:
        # The decode builds hundreds of thousands of acyclic groups and
        # trail tuples: full collections during their growth would
        # rescan the whole heap for cycles that cannot exist.
        with gc_paused():
            if self._by_comp is None:
                self._by_comp = _materialize(
                    self._mine, self._decode, self._comp_id, self._n_nodes
                )
            if comp is not None:
                return self._by_comp.get(comp, [])
            merged: list[SuspiciousGroup] = []
            for ordinal in sorted(self._by_comp):
                merged.extend(self._by_comp[ordinal])
            return merged


def make_group_store(
    mine: CompactMine, decode: tuple[Node, ...], comp_id: np.ndarray
) -> _GroupStore:
    """The shared store backing a run's :class:`LazyGroups` views."""
    return _GroupStore(mine, decode, comp_id)


def _materialize(
    mine: CompactMine,
    decode: tuple[Node, ...],
    comp_id: np.ndarray,
    n_nodes: int,
) -> dict[int, list[SuspiciousGroup]]:
    """Decode every group from the arrays, grouped by component ordinal.

    Reproduces the Appendix-B matcher's emission semantics: one matched
    group per (emission, same-root prefix ending at the target), circle
    groups deduped on their cycle node tuple.  The group set — and the
    per-component count — equal :func:`count_mine`'s tallies by
    construction (same index, same dedup keys).

    Only the lanes that make a group are visited: circles, and the
    others with at least one support.  A stable sort by component lays
    them out in component runs that keep emission order, so each
    component's list is filled in one go, in lane order.
    """
    by_comp: dict[int, list[SuspiciousGroup]] = {}
    index = _matcher_index(mine, n_nodes)
    lanes = np.flatnonzero(index.circle | (index.hi > index.lo))
    if not lanes.size:
        return by_comp
    lane_comp = comp_id[mine.emit_target[lanes]]
    by_run = np.argsort(lane_comp, kind="stable")
    lanes = lanes[by_run]
    lane_comp = lane_comp[by_run]
    cuts = (np.flatnonzero(np.diff(lane_comp)) + 1).tolist()
    run_starts = [0, *cuts]
    run_stops = [*cuts, lanes.size]

    parent_l = mine.parent.tolist()
    node_l = mine.node.tolist()
    # Prefix tuples in one forward pass (parents precede children).
    prefixes: list[tuple[Node, ...]] = [()] * len(node_l)
    for i, p in enumerate(parent_l):
        label = decode[node_l[i]]
        prefixes[i] = prefixes[p] + (label,) if p >= 0 else (label,)

    order_l = index.order.tolist()
    tree_l = mine.emit_tree[lanes].tolist()
    target_l = mine.emit_target[lanes].tolist()
    lo_l = index.lo[lanes].tolist()
    hi_l = index.hi[lanes].tolist()
    circle_l = index.circle[lanes].tolist()
    # Bound once: the innermost loop runs once per matched group.
    new = object.__new__
    set_trading = _SET_TRADING
    set_support = _SET_SUPPORT
    set_kind = _SET_KIND
    matched = _MATCHED
    seen: set[tuple[int, ...]] = set()
    for comp, a, b in zip(lane_comp[run_starts].tolist(), run_starts, run_stops):
        out: list[SuspiciousGroup] = []
        append = out.append
        for tree_idx, target, lo, hi, is_circle in zip(
            tree_l[a:b], target_l[a:b], lo_l[a:b], hi_l[a:b], circle_l[a:b]
        ):
            end = decode[target]
            if is_circle:
                cursor = tree_idx
                walk = [node_l[cursor]]
                while node_l[cursor] != target:
                    cursor = parent_l[cursor]
                    walk.append(node_l[cursor])
                key = tuple(walk)
                if key in seen:
                    continue
                seen.add(key)
                walk.reverse()
                group = new(SuspiciousGroup)
                set_trading(group, tuple(decode[u] for u in walk) + (end,))
                set_support(group, (end,))
                set_kind(group, _CIRCLE)
                append(group)
                continue
            trading_trail = prefixes[tree_idx] + (end,)
            for support in order_l[lo:hi]:
                group = new(SuspiciousGroup)
                set_trading(group, trading_trail)
                set_support(group, prefixes[support])
                set_kind(group, matched)
                append(group)
        by_comp[comp] = out
    return by_comp


class LazyGroups(Sequence[SuspiciousGroup]):
    """A sized, lazily-materialized sequence of suspicious groups.

    ``len`` is O(1) (the counts come from :func:`count_mine`); the group
    objects are decoded from the compact arrays on first element access
    and cached.  ``tail`` carries eager extras appended after the mined
    groups (the SCS groups on the top-level view).
    """

    __slots__ = ("_store", "_comp", "_length", "_tail", "_items")

    def __init__(
        self,
        store: _GroupStore,
        comp: int | None,
        mined_count: int,
        tail: Sequence[SuspiciousGroup] = (),
    ) -> None:
        self._store = store
        self._comp = comp
        self._tail = list(tail)
        self._length = mined_count + len(self._tail)
        self._items: list[SuspiciousGroup] | None = None

    def _materialized(self) -> list[SuspiciousGroup]:
        if self._items is None:
            items = self._store.groups_for(self._comp)
            if self._tail:
                items = items + self._tail
            if len(items) != self._length:
                raise RuntimeError(
                    f"lazy group view materialized {len(items)} groups but "
                    f"was sized {self._length} (count/materialize drift)"
                )
            self._items = items
        return self._items

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: Any) -> Any:
        return self._materialized()[index]

    def __iter__(self) -> Iterator[SuspiciousGroup]:
        return iter(self._materialized())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._items is None else "materialized"
        scope = "all components" if self._comp is None else f"component {self._comp}"
        return f"<LazyGroups {self._length} groups ({scope}, {state})>"
