"""Per-company investigation drill-down (the Servyou system's views).

Figs. 17-19 show the deployed tax-source monitoring system: the
investment tree around a focal company, the influence graph of
monitored companies, and the affiliated-transaction analysis listing a
company's directors, its affiliated companies and the suspicious IATs
between them.  :class:`CompanyInvestigation` exposes the same queries
programmatically over a TPIIN plus a detection result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.graph.traversal import ancestors
from repro.mining.detector import DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.model.colors import EColor, VColor
from repro.weights.scoring import WeightConfig, score_trading_arc

__all__ = [
    "CompanyInvestigation",
    "check_company",
    "investigate_company",
    "extract_neighborhood",
]


def extract_neighborhood(tpiin: TPIIN, center: Node, *, radius: int = 2) -> TPIIN:
    """The ego network around ``center`` as a standalone TPIIN.

    Collects every node within ``radius`` hops of ``center`` (following
    arcs in both directions, any color) and returns the induced TPIIN —
    the "partial influence graph of the companies monitored" view of
    Fig. 18, ready for SVG rendering.  Provenance labels for the
    surviving arcs are carried over.
    """
    if not tpiin.graph.has_node(center):
        raise MiningError(f"node {center!r} is not in the TPIIN")
    if radius < 0:
        raise MiningError("radius must be non-negative")
    keep = {center}
    frontier = {center}
    for _ in range(radius):
        nxt: set[Node] = set()
        for node in frontier:
            nxt.update(tpiin.graph.successors(node))
            nxt.update(tpiin.graph.predecessors(node))
        nxt -= keep
        keep |= nxt
        frontier = nxt
    sub = tpiin.graph.subgraph(keep)
    provenance = {
        arc: labels
        for arc, labels in tpiin.arc_provenance.items()
        if arc[0] in keep and arc[1] in keep
    }
    return TPIIN(
        graph=sub,
        registry=tpiin.registry,
        node_map={k: v for k, v in tpiin.node_map.items() if v in keep},
        arc_provenance=provenance,
    )


@dataclass
class CompanyInvestigation:
    """Everything the monitoring views show for one focal company."""

    company: Node
    influencers: list[Node] = field(default_factory=list)  # direct persons
    investors: list[Node] = field(default_factory=list)  # direct company parents
    holdings: list[Node] = field(default_factory=list)  # direct investees
    affiliated_companies: list[Node] = field(default_factory=list)
    groups: list[SuspiciousGroup] = field(default_factory=list)
    suspicious_sales: list[tuple[Node, float]] = field(default_factory=list)
    suspicious_purchases: list[tuple[Node, float]] = field(default_factory=list)
    detector: str = ""  # which detector produced `groups` (audit provenance)
    detector_version: str = ""

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready view (the serving daemon's ``/investigate``)."""
        return {
            "company": str(self.company),
            "detector": self.detector,
            "detector_version": self.detector_version,
            "influencers": [str(n) for n in self.influencers],
            "investors": [str(n) for n in self.investors],
            "holdings": [str(n) for n in self.holdings],
            "affiliated_companies": [str(n) for n in self.affiliated_companies],
            "group_count": len(self.groups),
            "groups": [g.render() for g in self.groups],
            "suspicious_sales": [
                {"buyer": str(buyer), "score": score}
                for buyer, score in self.suspicious_sales
            ],
            "suspicious_purchases": [
                {"seller": str(seller), "score": score}
                for seller, score in self.suspicious_purchases
            ],
        }

    def render(self, *, max_rows: int = 12) -> str:
        """A Fig. 19-style textual briefing."""
        lines = [f"== Affiliated transaction analysis: {self.company} =="]
        if self.detector:
            lines.append(f"detector: {self.detector} v{self.detector_version}")
        lines.append(
            "directors / influencers: " + (", ".join(map(str, self.influencers)) or "-")
        )
        lines.append("direct investors: " + (", ".join(map(str, self.investors)) or "-"))
        lines.append("direct holdings: " + (", ".join(map(str, self.holdings)) or "-"))
        lines.append(
            f"affiliated companies ({len(self.affiliated_companies)}): "
            + ", ".join(map(str, self.affiliated_companies[:max_rows]))
            + (" ..." if len(self.affiliated_companies) > max_rows else "")
        )
        lines.append(f"suspicious groups involving {self.company}: {len(self.groups)}")
        for group in self.groups[:max_rows]:
            lines.append("  " + group.render())
        if self.suspicious_sales:
            lines.append("suspicious sales (IAT candidates):")
            for buyer, score in self.suspicious_sales[:max_rows]:
                lines.append(f"  {self.company} -> {buyer}  score={score:.3f}")
        if self.suspicious_purchases:
            lines.append("suspicious purchases (IAT candidates):")
            for seller, score in self.suspicious_purchases[:max_rows]:
                lines.append(f"  {seller} -> {self.company}  score={score:.3f}")
        return "\n".join(lines)

    def investment_tree(self, tpiin: TPIIN, *, depth: int = 3) -> str:
        """Fig. 17-style indented investment tree under the company."""
        lines: list[str] = [str(self.company)]

        def walk(node: Node, level: int) -> None:
            if level > depth:
                return
            children = [
                head
                for head in tpiin.graph.successors(node, EColor.INFLUENCE)
                if tpiin.graph.node_color(head) == VColor.COMPANY
            ]
            for child in sorted(children, key=str):
                lines.append("  " * level + f"-> {child}")
                walk(child, level + 1)

        walk(self.company, 1)
        return "\n".join(lines)


def check_company(tpiin: TPIIN, company: Node) -> None:
    """Raise :class:`MiningError` unless ``company`` is a company node."""
    graph = tpiin.graph
    if not graph.has_node(company):
        raise MiningError(f"company {company!r} is not in the TPIIN")
    if graph.node_color(company) != VColor.COMPANY:
        raise MiningError(f"node {company!r} is not a company")


def investigate_company(
    tpiin: TPIIN,
    result: DetectionResult,
    company: Node,
    *,
    weight_config: WeightConfig | None = None,
) -> CompanyInvestigation:
    """Build the drill-down views for ``company``.

    Only ``result``'s groups that involve ``company`` are read, so the
    result of the company's subTPIIN alone gives the same views.
    """
    check_company(tpiin, company)
    graph = tpiin.graph

    influencers = [
        p
        for p in graph.predecessors(company, EColor.INFLUENCE)
        if graph.node_color(p) == VColor.PERSON
    ]
    investors = [
        p
        for p in graph.predecessors(company, EColor.INFLUENCE)
        if graph.node_color(p) == VColor.COMPANY
    ]
    holdings = [
        h
        for h in graph.successors(company, EColor.INFLUENCE)
        if graph.node_color(h) == VColor.COMPANY
    ]
    # Affiliated companies: share an antecedent — i.e. companies in the
    # ancestor/descendant cone of this company's antecedent closure,
    # found by one walk down from the whole cone at once.
    cone = ancestors(graph, company, EColor.INFLUENCE)
    affiliated: set[Node] = set()
    stack = [*cone, company]
    while stack:
        for head in graph.successors(stack.pop(), EColor.INFLUENCE):
            if head not in affiliated:
                affiliated.add(head)
                stack.append(head)
    affiliated.discard(company)
    affiliated_companies = sorted(
        (n for n in affiliated if graph.node_color(n) == VColor.COMPANY), key=str
    )

    groups = [
        g for g in result.groups if company in g.trading_trail or company in g.support_trail
    ]
    by_arc: dict[tuple[Node, Node], list[SuspiciousGroup]] = {}
    for group in groups:
        by_arc.setdefault(group.trading_arc, []).append(group)
    sales: list[tuple[Node, float]] = []
    purchases: list[tuple[Node, float]] = []
    for (seller, buyer), arc_groups in by_arc.items():
        score = score_trading_arc(arc_groups, tpiin, weight_config)
        if seller == company:
            sales.append((buyer, score))
        elif buyer == company:
            purchases.append((seller, score))
    sales.sort(key=lambda item: -item[1])
    purchases.sort(key=lambda item: -item[1])

    return CompanyInvestigation(
        company=company,
        influencers=sorted(influencers, key=str),
        investors=sorted(investors, key=str),
        holdings=sorted(holdings, key=str),
        affiliated_companies=affiliated_companies,
        groups=groups,
        suspicious_sales=sales,
        suspicious_purchases=purchases,
        detector=result.detector,
        detector_version=result.detector_version,
    )
