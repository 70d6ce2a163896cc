"""The compact mining kernel over a frozen CSR graph.

:func:`mine_frontier_compact` is the kernel the ``parallel`` engine
(:mod:`repro.mining.parallel`) runs in-process.  It walks Algorithm 2's
patterns tree over a :class:`~repro.graph.csr.CSRGraph` of the *whole*
TPIIN, restricted to the components a
:class:`~repro.mining.compact.MiningPlan` selects, and records the DFS
prefix forest plus the first-trading-arc emissions as flat arrays
(:class:`~repro.mining.compact.CompactMine`) instead of building group
objects.  The walk is a batched, level-synchronous frontier expansion;
it needs an acyclic antecedent network (Property 1), which
:func:`~repro.mining.compact.build_plan` checks.

Counting and lazy group materialization over those records live in
:mod:`repro.mining.compact`; equality with the faithful engine is
property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mining.compact import CompactMine, MiningPlan, as_int64
from repro.model.colors import EColor

__all__ = ["mine_frontier_compact"]


def _selected_roots(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> np.ndarray:
    """Influence roots (in-degree zero) of the selected components."""
    in_offs = as_int64(csr.in_adjacency(EColor.INFLUENCE)[0])
    selected = np.zeros(plan.n_components, dtype=bool)
    selected[comps] = True
    return np.flatnonzero((in_offs[1:] == in_offs[:-1]) & selected[plan.comp_id])


def _grown(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A doubled copy of ``buffer`` with at least ``needed`` capacity."""
    capacity = max(len(buffer), 1)
    while capacity < needed:
        capacity *= 2
    fresh = np.empty(capacity, dtype=np.int64)
    fresh[:used] = buffer[:used]
    return fresh


def mine_frontier_compact(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Batched frontier expansion of the patterns tree.

    One level-synchronous sweep grows the DFS prefix forest of *every*
    selected component at once: each step gathers the influence
    successors of the whole frontier with a handful of vectorized
    ``repeat``/``cumsum`` operations, so the per-tree-node cost is a few
    array slots instead of a python stack frame.  Trading emissions are
    collected the same way as each level enters the tree.

    No ``on_path`` guard is applied: the plan exists only for an acyclic
    antecedent network, where a walk cannot revisit a node.  An empty
    ``comps`` yields an empty mine.  The tree arrays are preallocated
    from the plan's path-count estimate — exact below the clip — with
    doubling as the fallback.
    """
    infl_offs = as_int64(csr.out_adjacency(EColor.INFLUENCE)[0])
    infl_tgts = as_int64(csr.out_adjacency(EColor.INFLUENCE)[1])
    intra_offs = plan.intra_offsets
    intra_tgts = plan.intra_targets
    roots = _selected_roots(csr, plan, comps)

    estimate = float(plan.est_tree[comps].sum())
    capacity = int(min(max(estimate, float(roots.size), 1.0), 2.0e8))
    node = np.empty(capacity, dtype=np.int64)
    parent = np.empty(capacity, dtype=np.int64)
    root = np.empty(capacity, dtype=np.int64)
    count = int(roots.size)
    node[:count] = roots
    parent[:count] = -1
    root[:count] = roots

    emit_tree_parts: list[np.ndarray] = []
    emit_target_parts: list[np.ndarray] = []
    append_emit_tree = emit_tree_parts.append
    append_emit_target = emit_target_parts.append
    np_repeat = np.repeat
    np_arange = np.arange
    np_cumsum = np.cumsum
    lo, hi = 0, count
    while lo < hi:
        level = node[lo:hi]
        tdeg = intra_offs[level + 1] - intra_offs[level]
        t_total = int(tdeg.sum())
        if t_total:
            within = np_arange(t_total) - np_repeat(np_cumsum(tdeg) - tdeg, tdeg)
            append_emit_tree(np_repeat(np_arange(lo, hi), tdeg))
            append_emit_target(intra_tgts[np_repeat(intra_offs[level], tdeg) + within])
        ideg = infl_offs[level + 1] - infl_offs[level]
        i_total = int(ideg.sum())
        if not i_total:
            lo = hi
            continue
        if count + i_total > capacity:
            node = _grown(node, count, count + i_total)
            parent = _grown(parent, count, count + i_total)
            root = _grown(root, count, count + i_total)
            capacity = len(node)
        rep = np_repeat(np_arange(lo, hi), ideg)
        within = np_arange(i_total) - np_repeat(np_cumsum(ideg) - ideg, ideg)
        node[count : count + i_total] = infl_tgts[np_repeat(infl_offs[level], ideg) + within]
        parent[count : count + i_total] = rep
        root[count : count + i_total] = root[rep]
        lo, hi = count, count + i_total
        count = hi

    # Rule 1 fires exactly at tree nodes with no influence successor and
    # no intra trading successor (acyclic walks never skip an arc).
    labels = node[:count]
    leaf = (infl_offs[labels + 1] == infl_offs[labels]) & (
        intra_offs[labels + 1] == intra_offs[labels]
    )
    rule1 = np.bincount(plan.comp_id[labels[leaf]], minlength=plan.n_components)
    if emit_tree_parts:
        emit_tree = np.concatenate(emit_tree_parts)
        emit_target = np.concatenate(emit_target_parts)
    else:
        emit_tree = np.zeros(0, dtype=np.int64)
        emit_target = np.zeros(0, dtype=np.int64)
    return CompactMine(
        parent=parent[:count].copy(),
        node=labels.copy(),
        root=root[:count].copy(),
        emit_tree=emit_tree,
        emit_target=emit_target,
        rule1_by_comp=rule1,
    )
