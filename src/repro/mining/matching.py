"""Component-pattern matching (Section 4.3 and Appendix B).

Given the component pattern base of one subTPIIN, a suspicious group is
found wherever two patterns share the same antecedent node ``A1`` and one
of them (type (b)) ends with a trading arc into ``Cj`` while the other
contains ``Cj`` among its influence elements; the matched pair is the
type-(b) walk plus the other walk's prefix up to ``Cj``.  Two special
shapes complete the semantics:

* a **circle** inside a type-(b) walk — the trading target appears among
  the walk's own influence nodes — is itself a simple suspicious group
  (paper example ``{A1, C4, C5, -> C4}``); such a walk is *not* matched
  pairwise because the full walk revisits ``Cj`` and would not be a
  simple trail;
* intra-SCS trades are handled separately by
  :mod:`repro.mining.scs_groups`.

Two implementations are provided: :func:`match_component_patterns`
(prefix-indexed, linear in the base size plus output size) and
:func:`match_pairs_naive` (the literal pairwise scan of Appendix B); the
test suite proves them equivalent.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.digraph import Node
from repro.mining.groups import GroupKind, SuspiciousGroup
from repro.mining.patterns import PatternTrail

__all__ = ["match_component_patterns", "match_pairs_naive", "extract_circle"]


def extract_circle(trail: PatternTrail) -> tuple[Node, ...]:
    """The circle node sequence of a circular InOT-FTAOP walk.

    For ``{A1, C4, C5, -> C4}`` this returns ``(C4, C5, C4)`` — the
    influence sub-walk from the trading target's earlier occurrence,
    closed by the trading arc.
    """
    if not trail.has_circle:
        raise ValueError(f"trail {trail.render()!r} has no circle")
    target = trail.trading_target
    position = trail.nodes.index(target)
    return trail.nodes[position:] + (target,)


def match_component_patterns(
    trails: Iterable[PatternTrail],
) -> list[SuspiciousGroup]:
    """Find every suspicious group certified by a pattern base.

    Deduplication is by the (trading trail, support trail) node-sequence
    pair; distinct full patterns sharing a prefix contribute that prefix
    only once, matching the paper's count of one group per pair of
    component patterns.
    """
    trails = list(trails)
    # Index: antecedent -> node -> influence prefixes reaching it, kept
    # as an insertion-ordered dict so the groups come out in trail
    # order whatever the string hash seed.
    prefix_index: dict[Node, dict[Node, dict[tuple[Node, ...], None]]] = {}
    for trail in trails:
        per_root = prefix_index.setdefault(trail.antecedent, {})
        nodes = trail.nodes
        for i, node in enumerate(nodes):
            per_root.setdefault(node, {})[nodes[: i + 1]] = None

    groups: list[SuspiciousGroup] = []
    seen_keys: set[tuple[tuple[Node, ...], tuple[Node, ...]]] = set()
    seen_circles: set[tuple[Node, ...]] = set()
    for trail in trails:
        if not trail.is_ftaop:
            continue
        target = trail.trading_target
        if trail.has_circle:
            circle = extract_circle(trail)
            if circle not in seen_circles:
                seen_circles.add(circle)
                groups.append(
                    SuspiciousGroup(
                        trading_trail=circle,
                        support_trail=(target,),
                        kind=GroupKind.CIRCLE,
                    )
                )
            continue
        trading_trail = trail.nodes + (target,)
        supports = prefix_index[trail.antecedent].get(target)
        if not supports:
            continue
        for support in supports:
            key = (trading_trail, support)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            groups.append(
                SuspiciousGroup(
                    trading_trail=trading_trail,
                    support_trail=support,
                    kind=GroupKind.MATCHED,
                )
            )
    return groups


def match_pairs_naive(trails: Iterable[PatternTrail]) -> list[SuspiciousGroup]:
    """Literal Appendix-B matching: scan pattern pairs per antecedent.

    Quadratic in the per-antecedent base size; retained as the reference
    implementation the indexed matcher is verified against.
    """
    by_root: dict[Node, list[PatternTrail]] = {}
    for trail in trails:
        by_root.setdefault(trail.antecedent, []).append(trail)

    groups: list[SuspiciousGroup] = []
    seen_keys: set[tuple[tuple[Node, ...], tuple[Node, ...]]] = set()
    seen_circles: set[tuple[Node, ...]] = set()
    for root_trails in by_root.values():
        for pb in root_trails:
            if not pb.is_ftaop:
                continue
            target = pb.trading_target
            if pb.has_circle:
                circle = extract_circle(pb)
                if circle not in seen_circles:
                    seen_circles.add(circle)
                    groups.append(
                        SuspiciousGroup(
                            trading_trail=circle,
                            support_trail=(target,),
                            kind=GroupKind.CIRCLE,
                        )
                    )
                continue
            trading_trail = pb.nodes + (target,)
            for pa in root_trails:
                if target not in pa.nodes:
                    continue
                support = pa.nodes[: pa.nodes.index(target) + 1]
                key = (trading_trail, support)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                groups.append(
                    SuspiciousGroup(
                        trading_trail=trading_trail,
                        support_trail=support,
                        kind=GroupKind.MATCHED,
                    )
                )
    return groups
