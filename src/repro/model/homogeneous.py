"""The homogeneous source networks G1, G2, GI (G3) and G4.

Section 4.1 builds the TPIIN from four homogeneous relationship graphs
abstracted from the registries (CSRC, HRDPSC, PTAOs):

* **G1** — the *interdependence graph*: persons joined by unidirectional
  kinship or interlocking links.  When both relationships exist between a
  pair, only one link is kept.
* **G2** — the *influence graph*: a bipartite digraph from persons to
  companies with the four influence subclasses (is-an-CEO-and-D-of,
  is-CEO-of, is-CB-of, is-a-D-of).  Persons have indegree zero, companies
  outdegree zero, and every company links with at least one legal person.
* **GI** (called *G3* in the experiment figures) — the *investment
  graph*: company-to-company major-shareholding arcs; may contain cycles
  (mutual investment), which the fusion pipeline contracts.
* **G4** — the *trading graph*: company-to-company trading-relationship
  arcs.  One arc denotes the existence of a trading relationship, not an
  individual transaction.

Each wrapper owns a graph restricted to the right node/arc colors and
exposes a ``validate()`` implementing the Appendix-A structural
properties.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ValidationError
from repro.graph.digraph import DiGraph, Node, UnGraph
from repro.model.colors import (
    AffiliationKind,
    InfluenceKind,
    InterdependenceKind,
    RelationKind,
    VColor,
)

__all__ = [
    "InterdependenceGraph",
    "InfluenceGraph",
    "InvestmentGraph",
    "TradingGraph",
    "AffiliationGraph",
]


class InterdependenceGraph:
    """*G1*: kinship / interlocking links between persons."""

    def __init__(self) -> None:
        self.graph = UnGraph()

    def add_person(self, person_id: Node) -> None:
        self.graph.add_node(person_id, VColor.PERSON)

    def add_link(self, u: Node, v: Node, kind: InterdependenceKind | str) -> bool:
        """Add one interdependence link.

        Per Section 4.1, if a pair already has a link of the other kind
        the new one is dropped — a single interdependence color remains.
        Returns ``True`` when the link was recorded.
        """
        kind = InterdependenceKind(kind)
        self.add_person(u)
        self.add_person(v)
        if self.graph.has_edge(u, v):
            return False
        return self.graph.add_edge(u, v, kind)

    def links(self) -> Iterator[tuple[Node, Node, InterdependenceKind]]:
        return self.graph.edges()

    @property
    def number_of_persons(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def number_of_links(self) -> int:
        return self.graph.number_of_edges()

    def validate(self) -> None:
        """G1 holds only Person nodes and at most one link per pair."""
        for node in self.graph.nodes():
            if self.graph.node_color(node) != VColor.PERSON:
                raise ValidationError(f"G1 node {node!r} is not a Person")
        seen: set[frozenset[Node]] = set()
        for u, v, _kind in self.graph.edges():
            key = frozenset((u, v))
            if key in seen:
                raise ValidationError(
                    f"G1 pair {{{u!r}, {v!r}}} carries more than one link"
                )
            seen.add(key)


class InfluenceGraph:
    """*G2*: the bipartite person -> company influence digraph.

    Legal-person designations are tracked on top of the influence arcs:
    an LP link is an influence arc flagged as the company's unique legal
    representative.
    """

    def __init__(self) -> None:
        self.graph = DiGraph()
        self._legal_person_of: dict[Node, Node] = {}  # company -> person

    def add_person(self, person_id: Node) -> None:
        self.graph.add_node(person_id, VColor.PERSON)

    def add_company(self, company_id: Node) -> None:
        self.graph.add_node(company_id, VColor.COMPANY)

    def add_influence(
        self,
        person_id: Node,
        company_id: Node,
        kind: InfluenceKind | str,
        *,
        legal_person: bool = False,
    ) -> bool:
        """Record that ``person_id`` influences ``company_id``.

        ``legal_person=True`` marks this person as the company's LP; a
        company accepts exactly one LP (Section 4.1: "a unique link").
        """
        kind = InfluenceKind(kind)
        self.add_person(person_id)
        self.add_company(company_id)
        if legal_person:
            self.designate_legal_person(person_id, company_id)
        return self.graph.add_arc(person_id, company_id, kind)

    def designate_legal_person(self, person_id: Node, company_id: Node) -> None:
        """Record ``person_id`` as the LP of ``company_id`` without adding
        the influence arc (a bulk loader inserts the arcs afterwards)."""
        current = self._legal_person_of.get(company_id)
        if current is not None and current != person_id:
            raise ValidationError(
                f"company {company_id!r} already has legal person "
                f"{current!r}; cannot also assign {person_id!r}"
            )
        self._legal_person_of[company_id] = person_id

    def legal_person(self, company_id: Node) -> Node | None:
        return self._legal_person_of.get(company_id)

    @property
    def legal_person_map(self) -> dict[Node, Node]:
        return dict(self._legal_person_of)

    def influences(self) -> Iterator[tuple[Node, Node, InfluenceKind]]:
        return self.graph.arcs()

    @property
    def number_of_persons(self) -> int:
        return self.graph.number_of_nodes(VColor.PERSON)

    @property
    def number_of_companies(self) -> int:
        return self.graph.number_of_nodes(VColor.COMPANY)

    @property
    def number_of_influences(self) -> int:
        return self.graph.number_of_arcs()

    def validate(self) -> None:
        """The Appendix-A bipartite properties of G2.

        Persons have indegree zero; companies have outdegree zero; arcs
        run person -> company only; every company has a legal person
        among its influencers.
        """
        for node in self.graph.nodes():
            color = self.graph.node_color(node)
            if color == VColor.PERSON:
                if self.graph.in_degree(node) != 0:
                    raise ValidationError(f"G2 person {node!r} has positive indegree")
            elif color == VColor.COMPANY:
                if self.graph.out_degree(node) != 0:
                    raise ValidationError(f"G2 company {node!r} has positive outdegree")
            else:
                raise ValidationError(f"G2 node {node!r} has no Person/Company color")
        for tail, head, _kind in self.graph.arcs():
            if self.graph.node_color(tail) != VColor.PERSON:
                raise ValidationError(f"G2 arc tail {tail!r} is not a Person")
            if self.graph.node_color(head) != VColor.COMPANY:
                raise ValidationError(f"G2 arc head {head!r} is not a Company")
        for company in self.graph.nodes(VColor.COMPANY):
            lp = self._legal_person_of.get(company)
            if lp is None:
                raise ValidationError(f"company {company!r} has no legal person")
            if not self.graph.has_arc(lp, company):
                raise ValidationError(
                    f"legal person {lp!r} of company {company!r} has no influence arc"
                )


class _CompanyArcGraph:
    """Shared base for the two company-to-company arc graphs."""

    _color: RelationKind

    def __init__(self) -> None:
        self.graph = DiGraph()

    def add_company(self, company_id: Node) -> None:
        self.graph.add_node(company_id, VColor.COMPANY)

    def add_arc(self, tail: Node, head: Node) -> bool:
        self.check_arc(tail, head)
        self.add_company(tail)
        self.add_company(head)
        return self.graph.add_arc(tail, head, self._color)

    def check_arc(self, tail: Node, head: Node) -> None:
        """Reject what :meth:`add_arc` rejects: a self-arc."""
        if tail == head:
            raise ValidationError(
                f"self-arc on {tail!r}: a company cannot {self._color.value.lower()} itself"
            )

    def arcs(self) -> Iterator[tuple[Node, Node, RelationKind]]:
        return self.graph.arcs()

    @property
    def number_of_companies(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def number_of_arcs(self) -> int:
        return self.graph.number_of_arcs()

    def validate(self) -> None:
        for node in self.graph.nodes():
            if self.graph.node_color(node) != VColor.COMPANY:
                raise ValidationError(
                    f"{type(self).__name__} node {node!r} is not a Company"
                )
        for tail, head, color in self.graph.arcs():
            if color != self._color:
                raise ValidationError(
                    f"{type(self).__name__} arc ({tail!r}, {head!r}) has color {color!r}"
                )


class InvestmentGraph(_CompanyArcGraph):
    """*GI* / *G3*: major-shareholding arcs between companies.

    May legitimately contain directed cycles (mutual investment, Fig. A-3
    of the appendix); the fusion pipeline contracts them.
    """

    _color = RelationKind.INVESTMENT

    def add_investment(self, investor: Node, investee: Node) -> bool:
        return self.add_arc(investor, investee)


class TradingGraph(_CompanyArcGraph):
    """*G4*: trading-relationship arcs between companies."""

    _color = RelationKind.TRADING

    def add_trade(self, seller: Node, buyer: Node) -> bool:
        return self.add_arc(seller, buyer)


class AffiliationGraph:
    """Extra covert company-to-company links (future-work relationships).

    Arcs carry an :class:`~repro.model.colors.AffiliationKind` color —
    guarantee, franchise, licensing, exclusive supply.  The fusion
    pipeline folds them into the influence color next to investment, so
    a guarantor standing behind both parties of a trade becomes a
    common antecedent exactly like a shared investor would.
    """

    def __init__(self) -> None:
        self.graph = DiGraph()

    def add_company(self, company_id: Node) -> None:
        self.graph.add_node(company_id, VColor.COMPANY)

    def add_affiliation(
        self, source: Node, target: Node, kind: "AffiliationKind | str"
    ) -> bool:
        kind = AffiliationKind(kind)
        if source == target:
            raise ValidationError(
                f"self-affiliation on {source!r}: links join distinct companies"
            )
        self.add_company(source)
        self.add_company(target)
        return self.graph.add_arc(source, target, kind)

    def arcs(self) -> Iterator[tuple[Node, Node, object]]:
        return self.graph.arcs()

    @property
    def number_of_companies(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def number_of_arcs(self) -> int:
        return self.graph.number_of_arcs()

    def validate(self) -> None:
        for node in self.graph.nodes():
            if self.graph.node_color(node) != VColor.COMPANY:
                raise ValidationError(
                    f"AffiliationGraph node {node!r} is not a Company"
                )
        for tail, head, color in self.graph.arcs():
            if not isinstance(color, AffiliationKind):
                raise ValidationError(
                    f"affiliation arc ({tail!r}, {head!r}) has color {color!r}"
                )
