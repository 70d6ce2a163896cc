"""The Taxpayer Interest Interacted Network (Definition 1).

A TPIIN is the quadruple ``{V, E, VColor, EColor}`` with node colors
``{Person, Company}`` and arc colors ``{IN, TR}``.  It decomposes into

* the **antecedent network** — all ``IN`` arcs: person-to-company
  influence and company-to-company investment folded into one color.
  After fusion this is a DAG (Property 1); and
* the **trading network** — all ``TR`` arcs between companies.

:class:`TPIIN` wraps the fused :class:`~repro.graph.digraph.DiGraph`
together with the entity registry and contraction provenance, validates
Definition 1's constraints, and converts to/from the paper's ``r x 3``
edge-list format consumed by Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ValidationError
from repro.graph.dag import is_dag, roots
from repro.graph.digraph import DiGraph, Node
from repro.graph.edgelist import EdgeList
from repro.model.colors import EColor, VColor
from repro.model.entities import EntityRegistry

__all__ = ["TPIIN", "TPIINStats"]


@dataclass(frozen=True, slots=True)
class TPIINStats:
    """Summary counts, matching the captions of Figs. 11-16."""

    persons: int
    companies: int
    influence_arcs: int
    trading_arcs: int

    @property
    def nodes(self) -> int:
        return self.persons + self.companies

    @property
    def arcs(self) -> int:
        return self.influence_arcs + self.trading_arcs

    @property
    def average_node_degree(self) -> float:
        """Arcs per node — the "average node degree" column of Table 1.

        Solving the paper's reported figures against its arc totals shows
        the column is (total arcs) / (total nodes); see DESIGN.md.
        """
        return self.arcs / self.nodes if self.nodes else 0.0


@dataclass
class TPIIN:
    """A fused taxpayer interest interacted network.

    Parameters
    ----------
    graph:
        The fused digraph: ``VColor`` node colors, ``EColor`` arc colors.
    registry:
        Optional entity registry resolving node ids (including
        syndicates) to source entities.
    node_map:
        Provenance: original node id -> fused node id.  Identity entries
        may be omitted.
    intra_scs_trades:
        Trading arcs whose endpoints were merged into the same company
        syndicate by SCC contraction.  They cannot live in the graph
        (they would be self-loops) but are suspicious by construction
        (Section 4.3) and are re-emitted by the detector.
    scs_subgraphs:
        The saved strongly connected investment subgraphs, keyed by the
        syndicate id that replaced them; the detector extracts witness
        trails for intra-SCS trades from these.
    """

    graph: DiGraph
    registry: EntityRegistry | None = None
    node_map: dict[Node, Node] = field(default_factory=dict)
    intra_scs_trades: list[tuple[Node, Node]] = field(default_factory=list)
    scs_subgraphs: dict[Node, DiGraph] = field(default_factory=dict)
    arc_provenance: dict[tuple[Node, Node], frozenset[str]] = field(
        default_factory=dict
    )

    def provenance_of(self, tail: Node, head: Node) -> frozenset[str]:
        """Original relationship labels behind one fused influence arc.

        Empty for hand-built TPIINs (``TPIIN.build``) that never went
        through the fusion pipeline.
        """
        return self.arc_provenance.get((tail, head), frozenset())

    @property
    def scs_members(self) -> dict[Node, frozenset[Node]]:
        """Member node sets of each contracted investment syndicate."""
        return {
            sid: frozenset(sub.nodes()) for sid, sub in self.scs_subgraphs.items()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        *,
        persons: Iterable[Node] = (),
        companies: Iterable[Node] = (),
        influence: Iterable[tuple[Node, Node]] = (),
        trading: Iterable[tuple[Node, Node]] = (),
    ) -> "TPIIN":
        """Assemble a TPIIN directly from colored node and arc lists.

        This is the quick path for examples and tests that start from an
        already-fused network (like Fig. 6); production flows should use
        :func:`repro.fusion.pipeline.fuse`.
        """
        graph = DiGraph()
        for person in persons:
            graph.add_node(person, VColor.PERSON)
        for company in companies:
            graph.add_node(company, VColor.COMPANY)
        graph.add_arcs(influence, EColor.INFLUENCE)
        graph.add_arcs(trading, EColor.TRADING)
        return cls(graph=graph)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def antecedent_graph(self) -> DiGraph:
        """The antecedent network: every node, only ``IN`` arcs."""
        return self.graph.color_subgraph(EColor.INFLUENCE)

    def antecedent_view(self) -> "TPIIN":
        """A trading-free copy sharing this TPIIN's antecedent state.

        The copy keeps the influence graph, registry, contraction
        provenance and saved SCS subgraphs but drops every trading arc
        (including the recorded intra-SCS trades).  Streaming consumers
        (:class:`~repro.mining.incremental.IncrementalDetector`, the
        serving daemon) start from this view and load trading arcs as
        explicit updates.
        """
        return TPIIN(
            graph=self.antecedent_graph(),
            registry=self.registry,
            node_map=dict(self.node_map),
            intra_scs_trades=[],
            scs_subgraphs=dict(self.scs_subgraphs),
            arc_provenance=dict(self.arc_provenance),
        )

    def with_trading_arcs(self, arcs: Iterable[tuple[Node, Node]]) -> "TPIIN":
        """The :meth:`antecedent_view` plus ``arcs`` (original company ids,
        unchecked): endpoints map through ``node_map``, and an arc inside
        one syndicate goes to ``intra_scs_trades`` (Section 4.3)."""
        view = self.antecedent_view()
        graph_arcs, view.intra_scs_trades = self.map_trading_arcs(arcs)
        view.graph.add_arcs(graph_arcs, EColor.TRADING)
        return view

    def map_trading_arcs(
        self, arcs: Iterable[tuple[Node, Node]]
    ) -> tuple[list[tuple[Node, Node]], list[tuple[Node, Node]]]:
        """Split original-id trading arcs as :meth:`with_trading_arcs` files them.

        Returns ``(graph_arcs, intra_scs_trades)``: the fused arcs, with
        endpoints mapped through ``node_map`` and duplicates collapsed in
        first-seen order, and the arcs whose endpoints fused into one
        syndicate, in their original ids.
        """
        graph_arcs: dict[tuple[Node, Node], None] = {}
        intra: list[tuple[Node, Node]] = []
        node_map = self.node_map
        for seller, buyer in arcs:
            tail = node_map.get(seller, seller)
            head = node_map.get(buyer, buyer)
            if tail == head:
                intra.append((seller, buyer))
            else:
                graph_arcs[(tail, head)] = None
        return list(graph_arcs), intra

    def trading_graph(self) -> DiGraph:
        """The trading network: every node, only ``TR`` arcs."""
        return self.graph.color_subgraph(EColor.TRADING)

    def persons(self) -> Iterator[Node]:
        return self.graph.nodes(VColor.PERSON)

    def companies(self) -> Iterator[Node]:
        return self.graph.nodes(VColor.COMPANY)

    def trading_arcs(self) -> Iterator[tuple[Node, Node]]:
        for tail, head, _color in self.graph.arcs(EColor.TRADING):
            yield (tail, head)

    def influence_arcs(self) -> Iterator[tuple[Node, Node]]:
        for tail, head, _color in self.graph.arcs(EColor.INFLUENCE):
            yield (tail, head)

    def antecedent_roots(self) -> list[Node]:
        """Indegree-zero nodes of the antecedent network."""
        return roots(self.graph, EColor.INFLUENCE)

    def stats(self) -> TPIINStats:
        return TPIINStats(
            persons=self.graph.number_of_nodes(VColor.PERSON),
            companies=self.graph.number_of_nodes(VColor.COMPANY),
            influence_arcs=self.graph.number_of_arcs(EColor.INFLUENCE),
            trading_arcs=self.graph.number_of_arcs(EColor.TRADING),
        )

    # ------------------------------------------------------------------
    # validation (Definition 1 + Property 1)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural constraints of a well-formed TPIIN.

        * every node is colored ``Person`` or ``Company``;
        * persons have indegree zero (influence flows away from persons);
        * trading arcs join companies only;
        * influence arcs end at companies (a person never receives
          influence; person-to-person links were contracted away);
        * the antecedent network is acyclic (Property 1).

        The node colors are read once into two sets and the arc checks
        run in one pass over the arcs; acyclicity is one topological
        sort of the influence arcs.
        """
        graph = self.graph
        persons = set(graph.nodes(VColor.PERSON))
        companies = set(graph.nodes(VColor.COMPANY))
        if len(persons) + len(companies) != graph.number_of_nodes():
            for node in graph.nodes():
                if node not in persons and node not in companies:
                    raise ValidationError(
                        f"TPIIN node {node!r} has color {graph.node_color(node)!r}"
                    )
        for tail, head, color in graph.arcs():
            if head in persons:
                raise ValidationError(f"TPIIN person {head!r} has positive indegree")
            if color == EColor.TRADING:
                if tail not in companies:
                    raise ValidationError(
                        f"trading arc ({tail!r} -> {head!r}) must join companies"
                    )
            elif color != EColor.INFLUENCE:
                raise ValidationError(
                    f"arc ({tail!r} -> {head!r}) has unknown color {color!r}"
                )
            if tail == head:
                raise ValidationError(f"self-loop on {tail!r}")
        if not is_dag(graph, EColor.INFLUENCE):
            raise ValidationError(
                "antecedent network contains a directed cycle; run SCC "
                "contraction (repro.fusion) before building the TPIIN"
            )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_edge_list(self) -> EdgeList:
        """The ``r x 3`` array layout Algorithm 1 consumes."""
        return EdgeList.from_digraph(
            self.graph,
            influence_color=EColor.INFLUENCE,
            trading_color=EColor.TRADING,
        )

    @classmethod
    def from_edge_list(
        cls, edge_list: EdgeList, *, node_colors: dict[Node, Any] | None = None
    ) -> "TPIIN":
        """Rebuild a TPIIN from an edge list.

        ``node_colors`` overrides/supplies colors when the edge list was
        produced outside :meth:`to_edge_list` (e.g. loaded from CSV).
        Nodes with trading arcs or incoming influence are inferred as
        companies; remaining uncolored nodes default to persons, matching
        the paper's construction where only persons are pure sources.
        """
        graph = edge_list.to_digraph(
            influence_color=EColor.INFLUENCE, trading_color=EColor.TRADING
        )
        if node_colors:
            for node, color in node_colors.items():
                if graph.has_node(node) and graph.node_color(node) is None:
                    graph.add_node(node, color)
        inferred = DiGraph()
        for node in graph.nodes():
            color = graph.node_color(node)
            if color is None:
                has_trade = any(True for _ in graph.out_arcs(node) if _[2] == EColor.TRADING)
                has_in = graph.in_degree(node) > 0
                color = VColor.COMPANY if (has_trade or has_in) else VColor.PERSON
            inferred.add_node(node, color)
        for tail, head, color in graph.arcs():
            inferred.add_arc(tail, head, color)
        return cls(graph=inferred)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<TPIIN persons={s.persons} companies={s.companies} "
            f"IN={s.influence_arcs} TR={s.trading_arcs}>"
        )
