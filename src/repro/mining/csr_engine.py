"""Compact mining kernels over a frozen CSR graph.

These are the kernels the ``parallel`` engine
(:mod:`repro.mining.parallel`) runs in-process.  They walk Algorithm 2's
patterns tree over a :class:`~repro.graph.csr.CSRGraph` of the *whole*
TPIIN, restricted to the components a
:class:`~repro.mining.compact.MiningPlan` selects, and record the DFS
prefix forest plus the first-trading-arc emissions as flat arrays
(:class:`~repro.mining.compact.CompactMine`)
instead of building group objects:

* :func:`mine_frontier_compact` — batched, level-synchronous frontier
  expansion for large acyclic components;
* :func:`mine_stack_compact` — the guarded stack DFS for everything
  else (cyclic, or too small to amortize vectorization);
* :func:`mine_components` — picks the kernel per component and merges
  the records.

Counting and lazy group materialization over those records live in
:mod:`repro.mining.compact`; equality with the faithful engine is
property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mining.compact import CompactMine, MiningPlan, as_int64
from repro.model.colors import EColor

__all__ = [
    "mine_components",
    "mine_frontier_compact",
    "mine_stack_compact",
]

#: Acyclic components whose predicted DFS tree is at least this large
#: take the vectorized frontier kernel; smaller (or cyclic) ones stay
#: on the guarded python stack kernel, whose per-node constant is lower.
_FRONTIER_MIN_TREE = 256.0


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
    """Batched frontier expansion of the patterns tree (acyclic comps).

    One level-synchronous sweep grows the DFS prefix forest of *every*
    selected component at once: each step gathers the influence
    successors of the whole frontier with a handful of vectorized
    ``repeat``/``cumsum`` operations, so the per-tree-node cost is a few
    array slots instead of a python stack frame.  Trading emissions are
    collected the same way as each level enters the tree.

    Only valid on acyclic components (no ``on_path`` guard is applied;
    influence DAGs cannot revisit a node).  The tree arrays are
    preallocated from the plan's path-count estimate — exact below the
    clip — with doubling as the fallback.
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


def mine_stack_compact(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Guarded stack DFS recording the compact tree (any components).

    The cyclic-safe twin of :func:`mine_frontier_compact`: Algorithm
    2's DFS (``on_path`` guard included, as in the faithful walk)
    recording ``parent``/``node``/``root`` rows and raw emissions
    instead of building groups.  Trading arcs are emitted when a frame
    is *pushed* rather than interleaved with its influence arcs — the
    path is identical at both moments, so the emission set (and the
    Rule-1 condition: no trading arc, no pushed child) is unchanged.
    """
    infl_offs = as_int64(csr.out_adjacency(EColor.INFLUENCE)[0]).tolist()
    infl_tgts = as_int64(csr.out_adjacency(EColor.INFLUENCE)[1]).tolist()
    intra_offs = plan.intra_offsets.tolist()
    intra_tgts = plan.intra_targets.tolist()
    comp_of = plan.comp_id.tolist()
    roots = _selected_roots(csr, plan, comps)

    node_rec: list[int] = []
    parent_rec: list[int] = []
    root_rec: list[int] = []
    emit_tree: list[int] = []
    emit_target: list[int] = []
    append_node = node_rec.append
    append_parent = parent_rec.append
    append_root = root_rec.append
    append_emit_tree = emit_tree.append
    append_emit_target = emit_target.append
    rule1 = np.zeros(plan.n_components, dtype=np.int64)

    for start in roots.tolist():
        fires = 0
        tree_idx = len(node_rec)
        append_node(start)
        append_parent(-1)
        append_root(start)
        e_lo = intra_offs[start]
        e_hi = intra_offs[start + 1]
        emitted = e_hi > e_lo
        while e_lo < e_hi:
            append_emit_tree(tree_idx)
            append_emit_target(intra_tgts[e_lo])
            e_lo += 1
        stack_node = [start]
        stack_tree = [tree_idx]
        stack_cursor = [infl_offs[start]]
        stack_end = [infl_offs[start + 1]]
        stack_emitted = [emitted]
        on_path = {start}
        while stack_node:
            i = stack_cursor[-1]
            if i == stack_end[-1]:
                if not stack_emitted[-1]:
                    fires += 1
                on_path.discard(stack_node.pop())
                stack_tree.pop()
                stack_cursor.pop()
                stack_end.pop()
                stack_emitted.pop()
                continue
            stack_cursor[-1] = i + 1
            succ = infl_tgts[i]
            if succ in on_path:
                # Malformed (cyclic) input guard, as in the faithful DFS.
                continue
            stack_emitted[-1] = True
            tree_idx = len(node_rec)
            append_node(succ)
            append_parent(stack_tree[-1])
            append_root(start)
            e_lo = intra_offs[succ]
            e_hi = intra_offs[succ + 1]
            emitted = e_hi > e_lo
            while e_lo < e_hi:
                append_emit_tree(tree_idx)
                append_emit_target(intra_tgts[e_lo])
                e_lo += 1
            stack_node.append(succ)
            stack_tree.append(tree_idx)
            stack_cursor.append(infl_offs[succ])
            stack_end.append(infl_offs[succ + 1])
            stack_emitted.append(emitted)
            on_path.add(succ)
        rule1[comp_of[start]] += fires

    return CompactMine(
        parent=np.asarray(parent_rec, dtype=np.int64),
        node=np.asarray(node_rec, dtype=np.int64),
        root=np.asarray(root_rec, dtype=np.int64),
        emit_tree=np.asarray(emit_tree, dtype=np.int64),
        emit_target=np.asarray(emit_target, dtype=np.int64),
        rule1_by_comp=rule1,
    )


def mine_components(
    csr: CSRGraph, plan: MiningPlan, comps: np.ndarray
) -> CompactMine:
    """Mine a set of components with the best kernel for each.

    Acyclic components with a large predicted tree take one shared
    frontier batch; everything else (cyclic, or too small to amortize
    the vectorization overhead) runs the stack kernel.
    """
    comps = np.asarray(comps, dtype=np.int64)
    if not comps.size:
        return CompactMine.empty(plan.n_components)
    frontier_ok = ~plan.cyclic[comps] & (plan.est_tree[comps] >= _FRONTIER_MIN_TREE)
    parts: list[CompactMine] = []
    if bool(frontier_ok.any()):
        parts.append(mine_frontier_compact(csr, plan, comps[frontier_ok]))
    if not bool(frontier_ok.all()):
        parts.append(mine_stack_compact(csr, plan, comps[~frontier_ok]))
    return CompactMine.merge(parts, plan.n_components)
