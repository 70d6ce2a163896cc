"""Test-only reference for the circular-trading scan and its kernel.

These are the per-component forms the library used before its
one-pass rewrite, kept as oracles for the equivalence properties in
``tests/property/test_circular_equivalence.py``:

* :func:`reference_tarjan_sccs` — the Tarjan kernel with ``min()``
  lowlinks and an explicit on-stack set;
* :func:`reference_circular_run` — Tarjan rooted at every arc's
  seller, then, per ring, a walk of each member's buyers for the
  internal arcs and two more walks (buyers and sellers) for the flow
  balance;
* :func:`reference_arcs_payload` — ``Finding.to_dict``'s ``arcs``
  value, sorted as ``[str, str]`` lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from repro.detectors.base import DetectorOutcome, Finding, FrozenTradingView
from repro.detectors.circular import CircularTradingConfig
from repro.graph.digraph import Node


def reference_tarjan_sccs(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0
    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[Node, Iterator[Node]]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            advanced = False
            for nxt in pending:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def reference_circular_run(
    trading: FrozenTradingView, config: CircularTradingConfig
) -> DetectorOutcome:
    sellers = (seller for seller, _ in trading.arcs)
    components = [
        component
        for component in reference_tarjan_sccs(sellers, trading.buyers_of)
        if len(component) > 1 or component[0] in trading.buyers_of(component[0])
    ]
    findings: list[Finding] = []
    for component in components:
        if len(component) < config.min_cycle_size:
            continue
        ring = set(component)
        internal = [
            (seller, buyer)
            for seller in component
            for buyer in trading.buyers_of(seller)
            if buyer in ring
        ]
        balance = _reference_balance(component, ring, trading)
        if balance < config.min_balance:
            continue
        findings.append(
            Finding(
                detector="circular-trading",
                kind="circular-trading-ring",
                members=tuple(component),
                arcs=tuple(internal),
                score=balance,
                summary=(
                    f"{len(component)} companies trade in a closed cycle "
                    f"({len(internal)} internal arcs, "
                    f"flow balance {balance:.2f})"
                ),
                details=(
                    ("companies", len(component)),
                    ("internal_arcs", len(internal)),
                    ("balance", round(balance, 4)),
                ),
            )
        )
    findings.sort(key=lambda f: (-f.score, f.members))
    return DetectorOutcome(
        findings=findings,
        attributes={"sccs_examined": len(components), "rings": len(findings)},
    )


def _reference_balance(
    component: list[Node], ring: set[Node], trading: FrozenTradingView
) -> float:
    ratios = []
    for node in component:
        out_internal = sum(1 for b in trading.buyers_of(node) if b in ring)
        in_internal = sum(1 for s in trading.sellers_to(node) if s in ring)
        high = max(out_internal, in_internal)
        ratios.append((min(out_internal, in_internal) / high) if high else 0.0)
    return math.fsum(ratios) / len(component) if component else 0.0


def reference_arcs_payload(finding: Finding) -> list[list[str]]:
    return sorted([str(a), str(b)] for a, b in finding.arcs)
