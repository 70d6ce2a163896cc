"""Suspicious trades inside contracted investment syndicates.

Section 4.3 closes with the case the main algorithm cannot see: after
SCC contraction, a trading arc between two companies of the same
strongly connected subgraph becomes a self-loop on the syndicate node
and is excluded from the TPIIN.  Such a trade is suspicious *if and only
if it exists*: strong connectivity guarantees an investment trail from
the seller to the buyer, and that trail plus the trading arc form a
(simple) suspicious group.

The fusion pipeline records these arcs in ``TPIIN.intra_scs_trades`` and
keeps the saved subgraphs; this module turns them into groups with an
explicit witness trail.
"""

from __future__ import annotations

from collections import deque

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import DiGraph, Node
from repro.mining.groups import GroupKind, SuspiciousGroup

__all__ = ["scs_group", "scs_membership", "scs_suspicious_groups", "shortest_path_in"]


def shortest_path_in(graph: DiGraph, source: Node, target: Node) -> tuple[Node, ...]:
    """Shortest directed path ``source ~> target`` via BFS.

    Raises :class:`MiningError` when no path exists — inside a strongly
    connected subgraph that would indicate corrupted provenance.
    """
    if source == target:
        return (source,)
    parent: dict[Node, Node] = {}
    queue: deque[Node] = deque([source])
    seen = {source}
    while queue:
        node = queue.popleft()
        for nxt in graph.successors(node):
            if nxt in seen:
                continue
            parent[nxt] = node
            if nxt == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return tuple(path)
            seen.add(nxt)
            queue.append(nxt)
    raise MiningError(f"no path {source!r} ~> {target!r} in saved SCS subgraph")


def scs_suspicious_groups(tpiin: TPIIN) -> list[SuspiciousGroup]:
    """One simple suspicious group per distinct intra-SCS trading arc.

    The group pairs the trading arc ``(c1, c2)`` with the shortest
    investment trail ``c1 ~> c2`` inside the saved subgraph; BFS-shortest
    paths are simple, so the group is simple (Definition 3).
    """
    if not tpiin.intra_scs_trades:
        return []
    member_to_scs = scs_membership(tpiin)
    return [
        scs_group(tpiin, member_to_scs, seller, buyer)
        for seller, buyer in dict.fromkeys(tpiin.intra_scs_trades)
    ]


def scs_membership(tpiin: TPIIN) -> dict[Node, Node]:
    """Member company -> id of the saved syndicate that contains it."""
    return {
        member: scs_id
        for scs_id, subgraph in tpiin.scs_subgraphs.items()
        for member in subgraph.nodes()
    }


def scs_group(
    tpiin: TPIIN, member_to_scs: dict[Node, Node], seller: Node, buyer: Node
) -> SuspiciousGroup:
    """The witness group of one intra-SCS trade (``member_to_scs`` from
    :func:`scs_membership`)."""
    scs_id = member_to_scs.get(seller)
    if scs_id is None or member_to_scs.get(buyer) != scs_id:
        raise MiningError(
            f"intra-SCS trade ({seller!r} -> {buyer!r}) does not lie inside "
            "one saved strongly connected subgraph"
        )
    witness = shortest_path_in(tpiin.scs_subgraphs[scs_id], seller, buyer)
    return SuspiciousGroup(
        trading_trail=(seller, buyer), support_trail=witness, kind=GroupKind.SCS
    )
