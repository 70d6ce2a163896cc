"""Test-only reference for the parallel engine's group decode.

This is the lane-by-lane form :func:`repro.mining.compact._materialize`
had before it decoded one component run at a time, kept as the oracle
for ``tests/mining/test_materialize_reference.py``.  It visits every
emission lane in emission order, files each group under its target's
component with ``setdefault``, and recomputes the circle flags and the
per-root support index itself, so it shares no matcher code with the
library.  Groups are built through the validating constructor, which
compares equal to the library's unvalidated ones.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import Node
from repro.mining.compact import CompactMine
from repro.mining.groups import GroupKind, SuspiciousGroup


def reference_circle_flags(mine: CompactMine) -> np.ndarray:
    """Per emission, whether the trading target lies on the emitting path."""
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


def reference_support_index(
    mine: CompactMine, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tree indices sorted by ``(root, node)`` key, plus the sorted keys."""
    keys = mine.root * n_nodes + mine.node
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def reference_materialize(
    mine: CompactMine,
    decode: tuple[Node, ...],
    comp_id: np.ndarray,
    n_nodes: int,
) -> dict[int, list[SuspiciousGroup]]:
    """Every group from the arrays, grouped by component ordinal."""
    by_comp: dict[int, list[SuspiciousGroup]] = {}
    n_tree = len(mine.node)
    if not n_tree:
        return by_comp
    parent_l = mine.parent.tolist()
    node_l = mine.node.tolist()
    # Prefix tuples in one forward pass (parents precede children).
    prefixes: list[tuple[Node, ...]] = [()] * n_tree
    for i in range(n_tree):
        p = parent_l[i]
        label = decode[node_l[i]]
        prefixes[i] = prefixes[p] + (label,) if p >= 0 else (label,)

    circle = reference_circle_flags(mine)
    order, sorted_keys = reference_support_index(mine, n_nodes)
    queries = mine.root[mine.emit_tree] * n_nodes + mine.emit_target
    lo_arr = np.searchsorted(sorted_keys, queries, side="left").tolist()
    hi_arr = np.searchsorted(sorted_keys, queries, side="right").tolist()
    order_l = order.tolist()
    emit_tree_l = mine.emit_tree.tolist()
    emit_target_l = mine.emit_target.tolist()
    circle_l = circle.tolist()
    comp_id_l = comp_id.tolist()
    seen: set[tuple[int, ...]] = set()
    for lane in range(len(emit_tree_l)):
        tree_idx = emit_tree_l[lane]
        target = emit_target_l[lane]
        out = by_comp.setdefault(comp_id_l[target], [])
        end = decode[target]
        if circle_l[lane]:
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
            trail = tuple(decode[u] for u in walk) + (end,)
            out.append(SuspiciousGroup(trail, (end,), GroupKind.CIRCLE))
            continue
        lo = lo_arr[lane]
        hi = hi_arr[lane]
        if lo == hi:
            continue
        trading_trail = prefixes[tree_idx] + (end,)
        for j in range(lo, hi):
            out.append(
                SuspiciousGroup(trading_trail, prefixes[order_l[j]], GroupKind.MATCHED)
            )
    return by_comp


def reference_groups_for(
    by_comp: dict[int, list[SuspiciousGroup]], comp: int | None
) -> list[SuspiciousGroup]:
    """``_GroupStore.groups_for`` over a reference decode."""
    if comp is not None:
        return by_comp.get(comp, [])
    merged: list[SuspiciousGroup] = []
    for ordinal in sorted(by_comp):
        merged.extend(by_comp[ordinal])
    return merged
