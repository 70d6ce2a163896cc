"""Interdependence edge contraction (``G12 -> G12'``).

Section 4.1 combines the interdependence graph *G1* with the influence
graph *G2* into *G12*, then repeatedly applies an **edge contraction
operation**: pick an interdependence link, merge its two endpoints into a
*syndicate*, delete the link, and reattach all influence arcs to the
syndicate.  The process repeats — contracting person/person, then
syndicate/person, then syndicate/syndicate pairs — until no
interdependence link remains.  The result ``G12'`` is again a bipartite
influence digraph whose "persons" may be syndicates (e.g. node *B* of
Fig. 3(b), and *L1*/*B2* of Fig. 8).

Iterated pairwise contraction merges exactly the connected components of
*G1*; :func:`contract_interdependence` exploits that, while
:func:`contract_edge_once` provides the paper's literal single-step
operation (the equivalence is property-tested).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import FusionError
from repro.graph.digraph import DiGraph, Node, UnGraph
from repro.model.colors import VColor
from repro.model.entities import Syndicate

__all__ = [
    "ContractionResult",
    "contract_interdependence",
    "contract_edge_once",
    "default_syndicate_namer",
    "fully_contract_by_edges",
]


@dataclass
class ContractionResult:
    """Outcome of contracting all interdependence links.

    Attributes
    ----------
    graph:
        The contracted influence digraph ``G12'``.
    node_map:
        original person id -> surviving node id (syndicate id for merged
        persons, identity otherwise).
    syndicates:
        The person syndicates created, keyed by syndicate id.
    """

    graph: DiGraph
    node_map: dict[Node, Node] = field(default_factory=dict)
    syndicates: dict[Node, Syndicate] = field(default_factory=dict)

    def resolve(self, node: Node) -> Node:
        return self.node_map.get(node, node)


def default_syndicate_namer(members: frozenset[Node]) -> str:
    """Deterministic syndicate id derived from the merged member ids."""
    return "syn:" + "+".join(sorted(str(m) for m in members))


def contract_interdependence(
    influence: DiGraph,
    interdependence: UnGraph,
    *,
    namer: Callable[[frozenset[Node]], str] = default_syndicate_namer,
) -> ContractionResult:
    """Contract every interdependence link of ``interdependence``.

    ``influence`` is the *G2* digraph (persons -> companies); the output
    graph replaces each connected group of interdependent persons with a
    single syndicate node carrying the union of the group's influence
    arcs.  Persons appearing only in *G1* (no influence arcs) still merge
    into their syndicate; companies are untouched.
    """
    for node in interdependence.nodes():
        if influence.has_node(node) and influence.node_color(node) == VColor.COMPANY:
            raise FusionError(
                f"interdependence link endpoint {node!r} is a company; "
                "G1 joins persons only"
            )

    node_map: dict[Node, Node] = {}
    syndicates: dict[Node, Syndicate] = {}
    components = [
        frozenset(component)
        for component in interdependence.connected_components()
        if len(component) >= 2
    ]
    # Each link's kind, bucketed by its component in one pass over the
    # links (both endpoints of a link share a component).
    component_of = {
        member: index for index, members in enumerate(components) for member in members
    }
    link_kinds: list[set[str]] = [set() for _ in components]
    for u, _v, kind in interdependence.edges():
        link_kinds[component_of[u]].add(str(getattr(kind, "value", kind)))
    for members, kinds in zip(components, link_kinds):
        syndicate_id = namer(members)
        syndicate = Syndicate(
            syndicate_id=syndicate_id,
            members=frozenset(str(m) for m in members),
            kind="person",
            via=frozenset(kinds),
        )
        syndicates[syndicate_id] = syndicate
        for member in members:
            node_map[member] = syndicate_id

    contracted = DiGraph()
    for node in influence.nodes():
        target = node_map.get(node, node)
        contracted.add_node(target, influence.node_color(node))
    for syndicate_id in syndicates:
        contracted.add_node(syndicate_id, VColor.PERSON)
    # Persons known only to G1 (edge case: registry lag) survive too.
    for node in interdependence.nodes():
        contracted.add_node(node_map.get(node, node), VColor.PERSON)
    for tail, head, color in influence.arcs():
        new_tail = node_map.get(tail, tail)
        new_head = node_map.get(head, head)
        if new_tail == new_head:
            raise FusionError(
                f"contraction collapsed influence arc ({tail!r} -> {head!r}) "
                "into a self-loop; G1 must not join a person to a company"
            )
        # Preserve the original influence subclass (is-CEO-of, is-a-D-of,
        # ...) so the fused TPIIN can carry arc provenance for the
        # explanation layer; parallel subclasses coexist as parallel
        # colored arcs until the final recoloring.
        contracted.add_arc(new_tail, new_head, color)
    return ContractionResult(graph=contracted, node_map=node_map, syndicates=syndicates)


def contract_edge_once(
    graph: DiGraph,
    interdependence: UnGraph,
    u: Node,
    v: Node,
    *,
    namer: Callable[[frozenset[Node]], str] = default_syndicate_namer,
    members_of: dict[Node, frozenset[Node]] | None = None,
) -> tuple[DiGraph, UnGraph, Node]:
    """The paper's literal single edge-contraction step.

    Merges the endpoints ``u`` and ``v`` of one interdependence link into
    a fresh syndicate node, reattaches both nodes' influence arcs and
    remaining interdependence links to it, and returns the new influence
    graph, the new interdependence graph and the syndicate id.

    ``members_of`` tracks which original persons each current node stands
    for, so repeated application produces the same syndicate identifiers
    as :func:`contract_interdependence`.  The two approaches are proven
    equivalent in the property-test suite.
    """
    if not interdependence.has_edge(u, v):
        raise FusionError(f"no interdependence link between {u!r} and {v!r}")
    members_of = members_of if members_of is not None else {}
    u_members = members_of.get(u, frozenset((u,)))
    v_members = members_of.get(v, frozenset((v,)))
    merged_members = u_members | v_members
    syndicate_id: Node = namer(merged_members)
    members_of[syndicate_id] = merged_members

    new_graph = DiGraph()
    for node in graph.nodes():
        if node in (u, v):
            continue
        new_graph.add_node(node, graph.node_color(node))
    new_graph.add_node(syndicate_id, VColor.PERSON)
    for tail, head, color in graph.arcs():
        new_tail = syndicate_id if tail in (u, v) else tail
        new_head = syndicate_id if head in (u, v) else head
        if new_tail == new_head:
            raise FusionError(
                f"contracting ({u!r}, {v!r}) collapsed arc ({tail!r} -> {head!r})"
            )
        new_graph.add_arc(new_tail, new_head, color)

    new_inter = UnGraph()
    for node in interdependence.nodes():
        if node not in (u, v):
            new_inter.add_node(node, interdependence.node_color(node))
    new_inter.add_node(syndicate_id, VColor.PERSON)
    for a, b, color in interdependence.edges():
        if {a, b} == {u, v}:
            continue  # the contracted link disappears
        new_a = syndicate_id if a in (u, v) else a
        new_b = syndicate_id if b in (u, v) else b
        if new_a == new_b:
            continue  # parallel link inside the syndicate dissolves
        new_inter.add_edge(new_a, new_b, color)
    return new_graph, new_inter, syndicate_id


def fully_contract_by_edges(
    influence: DiGraph,
    interdependence: UnGraph,
    *,
    namer: Callable[[frozenset[Node]], str] = default_syndicate_namer,
) -> tuple[DiGraph, dict[Node, frozenset[Node]]]:
    """Apply :func:`contract_edge_once` until no link remains.

    Reference implementation used to cross-validate the component-based
    fast path; quadratic, so only suitable for tests and small graphs.
    """
    graph = influence.copy()
    inter = interdependence
    members_of: dict[Node, frozenset[Node]] = {}
    while inter.number_of_edges():
        u, v, _color = next(iter(inter.edges()))
        graph, inter, _sid = contract_edge_once(
            graph, inter, u, v, namer=_interim_namer, members_of=members_of
        )
    # Rename interim syndicates to their canonical (final-membership) ids.
    rename: dict[Node, Node] = {}
    for node in list(graph.nodes()):
        members = members_of.get(node)
        if members is not None:
            rename[node] = namer(members)
    if not rename:
        return graph, members_of
    renamed = DiGraph()
    for node in graph.nodes():
        renamed.add_node(rename.get(node, node), graph.node_color(node))
    for tail, head, color in graph.arcs():
        renamed.add_arc(rename.get(tail, tail), rename.get(head, head), color)
    final_members = {rename[n]: m for n, m in members_of.items() if n in rename}
    return renamed, final_members


def _interim_namer(members: frozenset[Node]) -> str:
    return "interim:" + "+".join(sorted(str(m) for m in members))

