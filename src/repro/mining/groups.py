"""Suspicious-group data structures (Definitions 2 and 3).

A *suspicious tax evasion group* consists of two simple directed trails
with the same start node (the **antecedent**) and the same end node,
whose edge union contains exactly one trading arc, incoming to the end
node.  The group is *simple* when the trails share no node besides the
start and end.

Three shapes arise in a TPIIN:

* **matched** — the regular case: an influence trail closed by a trading
  arc, paired with a pure influence trail to the trading arc's head;
* **circle** — an influence trail from the trading arc's head back to
  its tail, closed by the trading arc itself (Section 4.3's
  ``{A1, C4, C5, -> C4}`` special case); the support trail degenerates
  to the single end node; and
* **scs** — a trading arc inside a contracted strongly-connected
  investment syndicate, witnessed by an investment trail between the
  same endpoints (Section 4.3's closing remark).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import MiningError
from repro.graph.digraph import Node

__all__ = [
    "GroupKind",
    "SuspiciousGroup",
    "minimal_groups",
    "render_line",
    "support_text",
    "trading_text",
    "trails_are_simple",
]


class GroupKind(str, enum.Enum):
    MATCHED = "matched"
    CIRCLE = "circle"
    SCS = "scs"

    # ``Enum.value`` is an ``enum.property``, two Python-level calls per
    # read; a C getter over the member's ``_value_`` returns the same str
    # at a third of the cost (a full group pass reads it per group).
    if TYPE_CHECKING:

        @property
        def value(self) -> str: ...

    else:
        value = property(operator.attrgetter("_value_"))


@dataclass(frozen=True, slots=True)
class SuspiciousGroup:
    """One suspicious tax evasion group.

    Attributes
    ----------
    trading_trail:
        Node sequence of the trail that carries the trading arc as its
        final step: ``(start, ..., c1, c2)`` where ``c1 -> c2`` is the
        trading arc.  For circle groups the start equals the end
        (``(c2, ..., c1, c2)``).
    support_trail:
        Node sequence of the pure influence trail ``(start, ..., c2)``.
        For circle groups this is the trivial trail ``(c2,)``; for SCS
        groups it is the investment witness trail inside the syndicate.
    kind:
        Which of the three shapes this group is.
    """

    trading_trail: tuple[Node, ...]
    support_trail: tuple[Node, ...]
    kind: GroupKind = GroupKind.MATCHED

    def __post_init__(self) -> None:
        if len(self.trading_trail) < 2:
            raise MiningError("trading trail must contain the trading arc")
        if not self.support_trail:
            raise MiningError("support trail must contain at least the end node")
        if self.kind is GroupKind.CIRCLE:
            if self.trading_trail[0] != self.trading_trail[-1]:
                raise MiningError("circle group must start and end at the same node")
            if self.support_trail != (self.trading_trail[-1],):
                raise MiningError("circle group support trail must be trivial")
        else:
            if self.trading_trail[0] != self.support_trail[0]:
                raise MiningError("the two trails must share their start node")
            if self.trading_trail[-1] != self.support_trail[-1]:
                raise MiningError("the two trails must share their end node")

    # ------------------------------------------------------------------
    @property
    def antecedent(self) -> Node:
        """The shared start node of the two trails."""
        return self.trading_trail[0]

    @property
    def end(self) -> Node:
        """The shared end node (head of the trading arc)."""
        return self.trading_trail[-1]

    @property
    def trading_arc(self) -> tuple[Node, Node]:
        """The single trading arc ``(c1, c2)`` behind the group."""
        return (self.trading_trail[-2], self.trading_trail[-1])

    @property
    def members(self) -> frozenset[Node]:
        """All distinct nodes involved in the group."""
        return frozenset(self.trading_trail) | frozenset(self.support_trail)

    @property
    def is_simple(self) -> bool:
        """Definition 3: the trails share no node besides start and end.

        Circle and SCS groups are simple by construction (the paper
        classifies the circle case as a simple suspicious group, and SCS
        witnesses are chosen as shortest — hence interior-disjoint —
        investment paths).
        """
        return trails_are_simple(self.trading_trail, self.support_trail, self.kind)

    @property
    def is_complex(self) -> bool:
        return not self.is_simple

    # ------------------------------------------------------------------
    def component_patterns(self) -> tuple[tuple[Node, ...], tuple[Node, ...]]:
        """The two component patterns (Definition 3) as node sequences."""
        return (self.trading_trail, self.support_trail)

    def key(self) -> tuple[tuple[Node, ...], tuple[Node, ...]]:
        """Canonical deduplication key."""
        return (self.trading_trail, self.support_trail)

    def render(self) -> str:
        """Human-readable form, e.g. ``{L1, C1, C3 -> C5} + {L1, C2, C5}``."""
        return render_line(
            self.kind,
            self.is_simple,
            trading_text(self.trading_trail),
            support_text(self.support_trail),
        )

    def __iter__(self) -> Iterator[Node]:
        return iter(sorted(self.members, key=str))


# The slot stores, for miners that guarantee the trail invariants by
# construction and build groups without ``__post_init__`` validation
# (the parallel engine's decode, ``repro.mining.compact``): a new
# ``object.__new__(SuspiciousGroup)`` gets its three fields through
# them, which sidesteps both the frozen-dataclass ``__setattr__`` guard
# and ``object.__setattr__``'s per-call attribute-name lookup.
_SET_TRADING = SuspiciousGroup.__dict__["trading_trail"].__set__
_SET_SUPPORT = SuspiciousGroup.__dict__["support_trail"].__set__
_SET_KIND = SuspiciousGroup.__dict__["kind"].__set__
# Read per classification: a module global costs less than the enum
# class attribute.
_MATCHED = GroupKind.MATCHED


def trails_are_simple(
    trading_trail: tuple[Node, ...], support_trail: tuple[Node, ...], kind: GroupKind
) -> bool:
    """:attr:`SuspiciousGroup.is_simple` for a group given as its trails.

    Looks each node of the support interior (the shorter one in mined
    groups, one to three nodes) up in the trading interior; building a
    set of either costs more at those sizes.
    """
    if kind is not _MATCHED:
        return True
    interior = trading_trail[1:-1]
    for node in support_trail[1:-1]:
        if node in interior:
            return False
    return True


#: ``render_line``'s line head per kind, complex then simple, e.g.
#: ``_LINE_PREFIX[GroupKind.CIRCLE][True] == "[simple/circle] {"``.
_LINE_PREFIX = {
    kind: tuple(f"[{label}/{kind.value}] {{" for label in ("complex", "simple"))
    for kind in GroupKind
}


def trading_text(trail: tuple[Node, ...]) -> str:
    """A trading trail as its line shows it: ``L1, C1, C3 -> C5``."""
    return f"{', '.join(map(str, trail[:-1]))} -> {trail[-1]}"


def support_text(trail: tuple[Node, ...]) -> str:
    """A support trail as its line shows it: ``L1, C2, C5``."""
    return ", ".join(map(str, trail))


def render_line(kind: GroupKind, simple: bool, trading: str, support: str) -> str:
    """One ``susGroup(i)`` line (without its newline), from its trails'
    :func:`trading_text` and :func:`support_text`.

    :meth:`SuspiciousGroup.render` and the file writer, which renders
    each trail once for all its groups, both assemble their lines here,
    so the line format lives here only.
    """
    return f"{_LINE_PREFIX[kind][simple]}{trading}}} + {{{support}}}"


def minimal_groups(groups: list[SuspiciousGroup]) -> list[SuspiciousGroup]:
    """Per trading arc, keep only membership-minimal groups.

    The counting semantics of Table 1 enumerate every trail pair, so a
    suspicious arc in a dense conglomerate carries many nested groups
    (e.g. the root-anchored complex group that contains a smaller simple
    one).  An auditor opening a case wants the *minimal* proof chains: a
    group is kept iff no other group over the same trading arc has a
    strictly smaller member set.  Ties (incomparable member sets) are
    all kept.  Order is preserved.
    """
    by_arc: dict[tuple[Node, Node], list[SuspiciousGroup]] = {}
    for group in groups:
        by_arc.setdefault(group.trading_arc, []).append(group)
    keep: set[int] = set()
    for arc_groups in by_arc.values():
        for group in arc_groups:
            dominated = any(
                other is not group and other.members < group.members
                for other in arc_groups
            )
            if not dominated:
                keep.add(id(group))
    return [g for g in groups if id(g) in keep]
