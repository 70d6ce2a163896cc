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
from dataclasses import dataclass

from repro.detectors.base import (
    DetectionContext,
    DetectorOutcome,
    Finding,
    FrozenTradingView,
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
        # Every ring member sells, so the sellers are roots enough.
        sellers = (seller for seller, _ in trading.arcs)
        components = [
            component
            for component in tarjan_sccs(sellers, trading.buyers_of)
            if len(component) > 1 or component[0] in trading.buyers_of(component[0])
        ]
        findings: list[Finding] = []
        for component in components:
            if len(component) < self.config.min_cycle_size:
                continue
            ring = set(component)
            internal: list[tuple[Node, Node]] = [
                (seller, buyer)
                for seller in component
                for buyer in trading.buyers_of(seller)
                if buyer in ring
            ]
            balance = self._flow_balance(component, ring, trading)
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

    @staticmethod
    def _flow_balance(
        component: list[Node], ring: set[Node], trading: FrozenTradingView
    ) -> float:
        """Mean per-member ``min(in, out) / max(in, out)`` within the ring.

        Summed exactly (``math.fsum``), so the score does not depend on
        the order Tarjan emits the members in, which follows arc order.
        """
        ratios = []
        for node in component:
            out_internal = sum(1 for b in trading.buyers_of(node) if b in ring)
            in_internal = sum(1 for s in trading.sellers_to(node) if s in ring)
            high = max(out_internal, in_internal)
            ratios.append((min(out_internal, in_internal) / high) if high else 0.0)
        return math.fsum(ratios) / len(component) if component else 0.0
