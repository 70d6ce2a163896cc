"""Circular-trading detector: balanced non-trivial trading cycles.

Circular trading — goods or invoices cycling through a closed chain of
companies to inflate turnover or launder input credits (Mehta et al.,
*Representation Learning on Graphs to Identify Circular Trading in
GST*) — is invisible to the IAT miner unless the ring shares an
antecedent.  This detector finds it structurally: every non-trivial
strongly connected component of the **trading** network (the same
iterative Tarjan kernel the fusion pipeline runs over investment arcs)
is a candidate ring (found over the frozen trading view, so a live arc
set needs no trading graph), scored by *flow balance* — in a deliberate
carousel each member passes on roughly what it receives, so the
per-member ratio ``min(in, out) / max(in, out)`` over ring-internal
trades sits near 1, while incidental SCCs in organic trading are lopsided.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from repro.detectors.base import (
    DetectionContext,
    DetectorOutcome,
    Finding,
)
from repro.errors import MiningError
from repro.graph.digraph import Node
from repro.graph.tarjan import tarjan_sccs

__all__ = ["CircularTradingConfig", "CircularTradingDetector"]


@dataclass(frozen=True, slots=True)
class CircularTradingConfig:
    """Knobs of the circular-trading scan.

    ``min_cycle_size`` ignores two-company back-and-forth (common in
    legitimate supplier relationships); ``min_balance`` is the mean
    per-member flow-balance threshold a component must reach to be
    reported as a ring.
    """

    min_cycle_size: int = 3
    min_balance: float = 0.6

    def __post_init__(self) -> None:
        if self.min_cycle_size < 2:
            raise MiningError(
                f"min_cycle_size must be >= 2, got {self.min_cycle_size}"
            )
        if not 0.0 <= self.min_balance <= 1.0:
            raise MiningError(
                f"min_balance must be in [0, 1], got {self.min_balance}"
            )


class CircularTradingDetector:
    """Tarjan SCCs over trading arcs, kept when flow-balanced."""

    name = "circular-trading"
    version = "1.0.0"
    summary = (
        "Closed trading cycles (non-trivial SCCs of the trading network) "
        "whose members pass on roughly what they receive."
    )
    config_type = CircularTradingConfig

    def __init__(self, config: CircularTradingConfig | None = None) -> None:
        self.config = config if config is not None else CircularTradingConfig()

    def run(self, context: DetectionContext) -> DetectorOutcome:
        trading = context.trading
        buyers_of = trading.buyers_of
        # Every ring member sells, so the sellers are roots enough.
        components = [
            component
            for component in tarjan_sccs(trading.sellers(), buyers_of)
            if len(component) > 1 or component[0] in buyers_of(component[0])
        ]
        rings = [c for c in components if len(c) >= self.config.min_cycle_size]
        findings: list[Finding] = []
        for component, internal in zip(rings, _internal_arcs(rings, trading.arcs)):
            balance = _flow_balance(component, internal)
            if balance < self.config.min_balance:
                continue
            findings.append(
                Finding(
                    detector=self.name,
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
            attributes={
                "sccs_examined": len(components),
                "rings": len(findings),
            },
        )


def _internal_arcs(
    rings: list[list[Node]], arcs: tuple[tuple[Node, Node], ...]
) -> list[list[tuple[Node, Node]]]:
    """Each ring's internal arcs, in arc order, from one scan of ``arcs``.

    The rings are disjoint (they are SCCs), so an arc is internal to at
    most one of them: the one holding both its ends.
    """
    internal: list[list[tuple[Node, Node]]] = [[] for _ in rings]
    if not rings:
        return internal
    ring_of = {node: index for index, ring in enumerate(rings) for node in ring}
    ring_at = ring_of.get
    for arc in arcs:
        index = ring_at(arc[0])
        if index is not None and ring_at(arc[1]) == index:
            internal[index].append(arc)
    return internal


def _flow_balance(ring: list[Node], internal: list[tuple[Node, Node]]) -> float:
    """Mean per-member ``min(in, out) / max(in, out)`` over ``internal``.

    Every member of a ring of two or more has an internal arc in and out.
    Summed exactly (``math.fsum``), so the score does not depend on the
    order Tarjan emits the members in, which follows arc order.
    """
    out_internal = Counter(map(itemgetter(0), internal))
    in_internal = Counter(map(itemgetter(1), internal))
    ratios = []
    for node in ring:
        counts = (out_internal[node], in_internal[node])
        ratios.append(min(counts) / max(counts))
    return math.fsum(ratios) / len(ring)
