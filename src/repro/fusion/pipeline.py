"""The multi-network fusion procedure of Fig. 5 (``G1..G4 -> TPIIN``).

Steps, following Section 4.1:

1. **G12** — overlay the interdependence links of *G1* on the influence
   bipartite graph *G2*.
2. **G12'** — contract every interdependence link, producing person
   syndicates (:mod:`repro.fusion.contraction`).
3. **GB** — add the investment arcs of *GI* between company nodes.
4. **G123** — detect each strongly connected investment subgraph with
   Tarjan's algorithm, save it, and contract it into a company syndicate
   (:mod:`repro.fusion.scc`).  G123 is the antecedent network, a DAG;
   investment is henceforth treated as a kind of influence, so all its
   arcs take the ``IN`` color.
5. **TPIIN** — overlay the trading arcs of *G4*, remapped through the
   contractions.  A trading arc landing inside one company syndicate is
   recorded as an intra-SCS trade (suspicious by construction) instead
   of becoming a self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FusionError
from repro.fusion.contraction import contract_interdependence
from repro.fusion.scc import contract_strongly_connected
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import DiGraph, Node
from repro.graph.gcpause import gc_paused
from repro.model.colors import EColor, RelationKind, VColor
from repro.model.entities import EntityRegistry
from repro.model.homogeneous import (
    AffiliationGraph,
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)
from repro.obs.tracing import NULL_TRACER, TracerLike

__all__ = ["FusionResult", "StageStats", "fuse"]


@dataclass(frozen=True, slots=True)
class StageStats:
    """Node/arc counts of one intermediate fusion stage (for Fig. 5)."""

    stage: str
    nodes: int
    arcs: int
    detail: str = ""


@dataclass
class FusionResult:
    """Everything the fusion pipeline produced."""

    tpiin: TPIIN
    stages: list[StageStats] = field(default_factory=list)
    person_syndicates: dict[Node, object] = field(default_factory=dict)
    company_syndicates: dict[Node, object] = field(default_factory=dict)
    saved_scs: dict[Node, DiGraph] = field(default_factory=dict)
    intermediates: dict[str, DiGraph] = field(default_factory=dict)

    def stage_report(self) -> str:
        """Plain-text rendering of the Fig. 5 stage progression."""
        lines = ["stage      nodes    arcs  detail"]
        for s in self.stages:
            lines.append(f"{s.stage:<9} {s.nodes:>6}  {s.arcs:>6}  {s.detail}")
        return "\n".join(lines)


@gc_paused()
def fuse(
    interdependence: InterdependenceGraph,
    influence: InfluenceGraph,
    investment: InvestmentGraph,
    trading: TradingGraph,
    *,
    affiliations: "AffiliationGraph | None" = None,
    registry: EntityRegistry | None = None,
    validate_inputs: bool = True,
    keep_intermediates: bool = False,
    tracer: TracerLike = NULL_TRACER,
) -> FusionResult:
    """Run the full multi-network fusion and return the TPIIN.

    With ``validate_inputs`` each homogeneous graph is checked against
    its Appendix-A structural properties first, and any company appearing
    in the investment or trading graph must be known to the influence
    graph (every registered company has a legal person).  The produced
    TPIIN is always validated against Definition 1 before returning.

    ``affiliations`` optionally adds the future-work covert
    company-to-company relationships (guarantee, franchise, licensing,
    exclusive supply); they enter the antecedent network next to the
    investment arcs, and cycles they close are contracted like mutual
    investment.

    ``registry`` receives the created syndicates so that mined groups can
    be expanded back to source entities.

    The stages run with the cyclic collector paused
    (:func:`~repro.graph.gcpause.gc_paused`): they build acyclic graphs
    only, and the last stage inserts the influence and the trading arcs
    with one bulk ``add_arcs`` call each.
    """
    if validate_inputs:
        with tracer.span("validate_inputs"):
            interdependence.validate()
            influence.validate()
            investment.validate()
            trading.validate()
            if affiliations is not None:
                affiliations.validate()
            known = set(influence.graph.nodes(VColor.COMPANY))
            sources = [("investment", investment), ("trading", trading)]
            if affiliations is not None:
                sources.append(("affiliation", affiliations))
            for source_name, source in sources:
                missing = set(source.graph.nodes()) - known
                if missing:
                    sample = ", ".join(sorted(repr(m) for m in missing)[:5])
                    raise FusionError(
                        f"{source_name} graph references companies unknown to the "
                        f"influence graph (no legal person): {sample}"
                    )

    stages: list[StageStats] = []
    intermediates: dict[str, DiGraph] = {}

    # Stage 1: G12 = G2 + G1 (the overlay exists only conceptually; the
    # contraction consumes both graphs directly).
    g12_nodes = len(
        set(influence.graph.nodes()) | set(interdependence.graph.nodes())
    )
    g12_arcs = influence.number_of_influences + interdependence.number_of_links
    stages.append(
        StageStats(
            "G12",
            g12_nodes,
            g12_arcs,
            f"{interdependence.number_of_links} interdependence links overlaid",
        )
    )

    # Stage 2: contract interdependence links -> G12'.
    with tracer.span("contract_interdependence") as stage_span:
        person_contraction = contract_interdependence(
            influence.graph, interdependence.graph
        )
        if tracer.enabled:
            stage_span.set(syndicates=len(person_contraction.syndicates))
    g12p = person_contraction.graph
    stages.append(
        StageStats(
            "G12'",
            g12p.number_of_nodes(),
            g12p.number_of_arcs(),
            f"{len(person_contraction.syndicates)} person syndicates",
        )
    )
    if keep_intermediates:
        intermediates["G12'"] = g12p.copy()

    # Stage 3: GB = G12' + investment (and affiliation) arcs.
    gb = g12p  # mutated in place; G12' snapshot (if any) was copied above
    with tracer.span("add_investment") as stage_span:
        for investor, investee, _color in investment.arcs():
            gb.add_node(investor, VColor.COMPANY)
            gb.add_node(investee, VColor.COMPANY)
            gb.add_arc(investor, investee, RelationKind.INVESTMENT)
        affiliation_count = 0
        if affiliations is not None:
            for source, target, _kind in affiliations.arcs():
                gb.add_node(source, VColor.COMPANY)
                gb.add_node(target, VColor.COMPANY)
                if gb.add_arc(source, target, RelationKind.AFFILIATION):
                    affiliation_count += 1
        if tracer.enabled:
            stage_span.set(
                investment_arcs=investment.number_of_arcs,
                affiliation_arcs=affiliation_count,
            )
    stages.append(
        StageStats(
            "GB",
            gb.number_of_nodes(),
            gb.number_of_arcs(),
            f"{investment.number_of_arcs} investment arcs added"
            + (f", {affiliation_count} affiliation arcs" if affiliation_count else ""),
        )
    )
    if keep_intermediates:
        intermediates["GB"] = gb.copy()

    # Stage 4: Tarjan + SCS contraction -> G123 (the antecedent network).
    # Cycle detection runs over every arc: persons have indegree zero, so
    # directed cycles can only form among the company-to-company arcs
    # (investment and affiliation).
    with tracer.span("contract_scc") as stage_span:
        scs_contraction = contract_strongly_connected(gb, cycle_color=None)
        if tracer.enabled:
            stage_span.set(syndicates=len(scs_contraction.syndicates))
    g123 = scs_contraction.graph
    stages.append(
        StageStats(
            "G123",
            g123.number_of_nodes(),
            g123.number_of_arcs(),
            f"{len(scs_contraction.syndicates)} SCSs contracted",
        )
    )
    if keep_intermediates:
        intermediates["G123"] = g123.copy()

    # Stage 5: recolor to the fused vocabulary and overlay trading arcs.
    # The original relationship subclasses survive as per-arc provenance
    # labels for the explanation layer.
    with tracer.span("overlay_trading") as stage_span:
        fused = DiGraph()
        arc_provenance: dict[tuple[Node, Node], set[str]] = {}
        for node in g123.nodes():
            fused.add_node(node, g123.node_color(node))
        influence_arcs: list[tuple[Node, Node]] = []
        for tail, head, color in g123.arcs():
            influence_arcs.append((tail, head))
            label = str(getattr(color, "value", color))
            arc_provenance.setdefault((tail, head), set()).add(label)
        fused.add_arcs(influence_arcs, EColor.INFLUENCE)

        company_map = scs_contraction.node_map
        intra_scs: list[tuple[Node, Node]] = []
        trading_arcs: list[tuple[Node, Node]] = []
        # Every trading endpoint, first seen first: each becomes (or
        # must already be) a Company before the arcs go in.
        endpoints: dict[Node, None] = {}
        for seller, buyer, _color in trading.arcs():
            new_seller = company_map.get(seller, seller)
            new_buyer = company_map.get(buyer, buyer)
            endpoints[new_seller] = endpoints[new_buyer] = None
            if new_seller == new_buyer:
                intra_scs.append((seller, buyer))
            else:
                trading_arcs.append((new_seller, new_buyer))
        for node in endpoints:
            fused.add_node(node, VColor.COMPANY)
        fused.add_arcs(trading_arcs, EColor.TRADING)
        if tracer.enabled:
            stage_span.set(
                nodes=fused.number_of_nodes(),
                arcs=fused.number_of_arcs(),
                intra_scs_trades=len(intra_scs),
            )
    stages.append(
        StageStats(
            "TPIIN",
            fused.number_of_nodes(),
            fused.number_of_arcs(),
            f"{len(intra_scs)} intra-SCS trades set aside",
        )
    )

    node_map: dict[Node, Node] = dict(person_contraction.node_map)
    node_map.update(company_map)
    tpiin = TPIIN(
        graph=fused,
        registry=registry,
        node_map=node_map,
        intra_scs_trades=intra_scs,
        scs_subgraphs=dict(scs_contraction.saved_subgraphs),
        arc_provenance={
            arc: frozenset(labels) for arc, labels in arc_provenance.items()
        },
    )
    tpiin.validate()

    if registry is not None:
        for syndicate in person_contraction.syndicates.values():
            registry.add_syndicate(syndicate)
        for syndicate in scs_contraction.syndicates.values():
            registry.add_syndicate(syndicate)

    return FusionResult(
        tpiin=tpiin,
        stages=stages,
        person_syndicates=dict(person_contraction.syndicates),
        company_syndicates=dict(scs_contraction.syndicates),
        saved_scs=dict(scs_contraction.saved_subgraphs),
        intermediates=intermediates,
    )
