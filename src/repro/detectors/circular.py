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

A run is two steps: :func:`scan_rings` builds an immutable
:class:`RingState` (the components and their internal flow) and
:func:`ring_findings` reports it.  :func:`advance` carries a state past
trading-arc changes that provably keep its component partition, so a
caller that reruns the detector after every write (the serving
daemon) pays for what the writes changed, not for what the network
holds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter

from repro.detectors.base import (
    DetectionContext,
    DetectorOutcome,
    Finding,
    FrozenTradingView,
)
from repro.errors import MiningError
from repro.graph.digraph import Node
from repro.graph.tarjan import tarjan_sccs

__all__ = [
    "CircularTradingConfig",
    "CircularTradingDetector",
    "RingState",
    "advance",
    "ring_findings",
    "scan_rings",
]

_Arc = tuple[Node, Node]


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
        return ring_findings(scan_rings(context.trading, self.config))


@dataclass(frozen=True, slots=True)
class _Component:
    """One non-trivial SCC of the trading network.

    ``members`` and the internal ``arcs`` are sorted as ``str``.  A
    component of at least ``min_cycle_size`` members (a ring) also
    carries, member by member, its internal out- and in-degree and its
    ``min(in, out) / max(in, out)`` ratio, and the mean of the ratios,
    its ``balance``.  A smaller component is kept only so
    :func:`advance` can tell whether a change touches it.
    """

    members: tuple[Node, ...]
    arcs: tuple[_Arc, ...]
    out: tuple[int, ...] = ()
    into: tuple[int, ...] = ()
    ratios: tuple[float, ...] = ()
    balance: float | None = None


@dataclass(frozen=True, slots=True)
class RingState:
    """The circular-trading scan of one trading network.

    Every non-trivial SCC (every component of two or more nodes, or one
    node with a self-arc), each node's component index, and the config
    the findings are drawn with.  Immutable: :func:`advance` shares
    ``component_of`` and every component it does not touch.
    """

    config: CircularTradingConfig
    component_of: Mapping[Node, int]
    components: tuple[_Component, ...]


def scan_rings(trading: FrozenTradingView, config: CircularTradingConfig) -> RingState:
    """Tarjan over ``trading``, then one pass over its arcs that files
    each arc whose ends lie in one component."""
    buyers_of = trading.buyers_of
    # Every ring member sells, so the sellers are roots enough.
    sccs = [
        component
        for component in tarjan_sccs(trading.sellers(), buyers_of)
        if len(component) > 1 or component[0] in buyers_of(component[0])
    ]
    component_of = {node: index for index, scc in enumerate(sccs) for node in scc}
    internal: list[list[_Arc]] = [[] for _ in sccs]
    if sccs:
        # The components are disjoint, so an arc is internal to at most
        # one of them: the one holding both its ends.
        index_at = component_of.get
        for arc in trading.arcs:
            index = index_at(arc[0])
            if index is not None and index_at(arc[1]) == index:
                internal[index].append(arc)
    components: list[_Component] = []
    for scc, arcs in zip(sccs, internal):
        members = tuple(sorted(scc, key=str))
        if len(members) < config.min_cycle_size:
            components.append(_Component(members, _str_sorted(arcs)))
            continue
        outs = Counter(map(itemgetter(0), arcs))
        ins = Counter(map(itemgetter(1), arcs))
        out = tuple(map(outs.__getitem__, members))
        into = tuple(map(ins.__getitem__, members))
        ratios = list(map(_ratio, out, into))
        components.append(_ring(members, _str_sorted(arcs), out, into, ratios))
    return RingState(config, component_of, tuple(components))


def ring_findings(state: RingState) -> DetectorOutcome:
    """The detector's outcome over ``state``: one finding per ring whose
    balance reaches ``min_balance``, by descending score, then members.

    The outcome carries ``state``, so the run can be advanced.
    """
    findings: list[Finding] = []
    min_balance = state.config.min_balance
    for component in state.components:
        balance = component.balance
        if balance is None or balance < min_balance:
            continue
        members, arcs = component.members, component.arcs
        findings.append(
            Finding(
                detector=CircularTradingDetector.name,
                kind="circular-trading-ring",
                members=members,
                arcs=arcs,
                score=balance,
                summary=(
                    f"{len(members)} companies trade in a closed cycle "
                    f"({len(arcs)} internal arcs, "
                    f"flow balance {balance:.2f})"
                ),
                details=(
                    ("companies", len(members)),
                    ("internal_arcs", len(arcs)),
                    ("balance", round(balance, 4)),
                ),
            )
        )
    findings.sort(key=lambda f: (-f.score, f.members))
    return DetectorOutcome(
        findings=findings,
        attributes={"sccs_examined": len(state.components), "rings": len(findings)},
        state=state,
    )


def advance(state: RingState, changes: Iterable[tuple[str, Node, Node]]) -> RingState | None:
    """``state`` after ``changes``, or ``None`` when the components may
    have changed.

    ``changes`` are ``(op, seller, buyer)`` trading-arc changes, ``op``
    ``"add"`` or ``"remove"``, in the order they happened.  An add
    inside one component joins its internal arcs and counts (an arc it
    already holds is a no-op); a remove of an arc no component holds
    changes nothing.  An add across components (or touching a node in
    none) may merge components, and a remove of an internal arc may
    split one: both return ``None``, and only a rescan can tell.  The
    new state copies only the components it touches.
    """
    component_of = state.component_of
    components = state.components
    added: dict[int, list[_Arc]] = {}
    for op, seller, buyer in changes:
        arc = (seller, buyer)
        index = component_of.get(seller)
        if index is None or component_of.get(buyer) != index:
            if op == "add":
                return None
            continue
        held = arc in added.get(index, ()) or _holds(components[index].arcs, arc)
        if op == "add":
            if not held:
                added.setdefault(index, []).append(arc)
        elif held:
            return None
    if not added:
        return state
    grown = list(components)
    for index, arcs in added.items():
        old = components[index]
        merged = list(old.arcs)
        for arc in arcs:
            insort(merged, arc, key=_str_arc)
        if old.balance is None:
            grown[index] = _Component(old.members, tuple(merged))
            continue
        out, into, ratios = list(old.out), list(old.into), list(old.ratios)
        for seller, buyer in arcs:
            at = _position(old.members, seller)
            out[at] += 1
            ratios[at] = _ratio(out[at], into[at])
            at = _position(old.members, buyer)
            into[at] += 1
            ratios[at] = _ratio(out[at], into[at])
        grown[index] = _ring(old.members, tuple(merged), tuple(out), tuple(into), ratios)
    return RingState(state.config, component_of, tuple(grown))


def _ring(
    members: tuple[Node, ...],
    arcs: tuple[_Arc, ...],
    out: tuple[int, ...],
    into: tuple[int, ...],
    ratios: list[float],
) -> _Component:
    """A ring and its flow balance: the mean of its members' ratios,
    summed exactly (``math.fsum``), so no arc order can change it."""
    balance = math.fsum(ratios) / len(members)
    return _Component(members, arcs, out, into, tuple(ratios), balance)


def _ratio(outs: int, ins: int) -> float:
    """``min(in, out) / max(in, out)`` of one ring member: 0 for a member
    that only buys or only sells inside the ring, 1 for a pass-through."""
    return outs / ins if outs < ins else ins / outs


def _position(members: tuple[Node, ...], node: Node) -> int:
    """Where ``node`` sits in the ``str``-sorted ``members``."""
    at = bisect_left(members, str(node), key=str)
    while members[at] != node:
        at += 1
    return at


def _str_arc(arc: _Arc) -> tuple[str, str]:
    return str(arc[0]), str(arc[1])


def _str_sorted(arcs: list[_Arc]) -> tuple[_Arc, ...]:
    """``arcs``, sorted in place as ``Finding.to_dict`` sorts them."""
    # Pairs of str sort as their str forms do, without a key call per arc.
    if all(type(a) is str and type(b) is str for a, b in arcs):
        arcs.sort()
    else:
        arcs.sort(key=_str_arc)
    return tuple(arcs)


def _holds(arcs: tuple[_Arc, ...], arc: _Arc) -> bool:
    """Whether the ``str``-sorted ``arcs`` hold ``arc``."""
    key = _str_arc(arc)
    at = bisect_left(arcs, key, key=_str_arc)
    while at < len(arcs) and _str_arc(arcs[at]) == key:
        if arcs[at] == arc:
            return True
        at += 1
    return False
