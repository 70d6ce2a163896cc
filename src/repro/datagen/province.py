"""The provincial synthetic dataset (Section 5.1's real-data stand-in).

Generates, at the paper's scale (776 directors, 1,350 legal persons,
2,452 companies), the four homogeneous source networks *G1*, *G2*,
*GI*/*G3* and — per trading probability — *G4*, plus the entity
registry.  The antecedent structure is organized into business clusters
(see :mod:`repro.datagen.clusters`) calibrated so that the suspicious
share of uniformly random trading arcs lands near the paper's ~5%.

Substitution note (DESIGN.md): the paper used confidential CSRC/HRDPSC/
PTAO extracts; the mining algorithms only ever see the resulting graph,
so a structurally calibrated synthetic graph preserves the evaluated
behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.clusters import ordered_pair_share, plan_cluster_sizes
from repro.datagen.companies import INDUSTRIES, make_company
from repro.datagen.config import (
    DIRECTORS_PER_COMPANY,
    ClusterPlan,
    ProvinceConfig,
    TradingConfig,
)
from repro.datagen.influence import build_influence
from repro.datagen.interdependence import build_interdependence
from repro.datagen.investment import build_investment
from repro.datagen.people import make_director, make_legal_person
from repro.datagen.rng import derive_rng
from repro.datagen.trading import random_trading_arcs, random_trading_graph
from repro.errors import DataGenError
from repro.fusion.pipeline import FusionResult, fuse
from repro.fusion.tpiin import TPIIN
from repro.model.colors import EColor
from repro.model.entities import EntityRegistry
from repro.model.homogeneous import (
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)

__all__ = ["ProvincialDataset", "generate_province"]


@dataclass
class ProvincialDataset:
    """Everything Section 5.1 builds before the trading sweep."""

    config: ProvinceConfig
    registry: EntityRegistry
    interdependence: InterdependenceGraph
    influence: InfluenceGraph
    investment: InvestmentGraph
    clusters: list[ClusterPlan] = field(default_factory=list)
    lp_of: dict[str, str] = field(default_factory=dict)

    @property
    def company_ids(self) -> list[str]:
        return [c for cluster in self.clusters for c in cluster.company_ids]

    @property
    def planned_suspicious_share(self) -> float:
        """The in-cluster ordered-pair share the cluster plan realizes."""
        return ordered_pair_share(
            [c.size for c in self.clusters], self.config.companies
        )

    # ------------------------------------------------------------------
    def trading_graph(self, probability: float, *, seed: int | None = None) -> TradingGraph:
        """One *G4* at the given trading probability."""
        return random_trading_graph(
            self.company_ids,
            TradingConfig(
                probability=probability,
                seed=self.config.seed if seed is None else seed,
            ),
        )

    def fuse_with(self, trading: TradingGraph, *, validate: bool = False) -> FusionResult:
        """Run the full fusion pipeline against one trading network.

        Input validation is off by default here purely for sweep speed;
        the generator's own tests fuse with validation on.
        """
        registry = None  # syndicates are registered once, via `fuse_base`
        return fuse(
            self.interdependence,
            self.influence,
            self.investment,
            trading,
            registry=registry,
            validate_inputs=validate,
        )

    def antecedent_tpiin(self, *, validate: bool = True) -> TPIIN:
        """The fused TPIIN with an empty trading network.

        The Table-1 sweep fuses once and then overlays each trading
        network with :meth:`overlay_trading`, which is much cheaper than
        re-running contraction twenty times.
        """
        empty = TradingGraph()
        for company in self.company_ids:
            empty.add_company(company)
        return fuse(
            self.interdependence,
            self.influence,
            self.investment,
            empty,
            validate_inputs=validate,
        ).tpiin

    def overlay_trading(
        self, base: TPIIN, probability: float, *, seed: int | None = None
    ) -> TPIIN:
        """A new TPIIN: ``base``'s antecedent plus fresh random trading arcs.

        Trading arc endpoints are remapped through the base's contraction
        node map; arcs collapsing into one company syndicate are recorded
        as intra-SCS trades, mirroring the fusion pipeline.
        """
        arcs = random_trading_arcs(
            self.company_ids,
            TradingConfig(
                probability=probability,
                seed=self.config.seed if seed is None else seed,
            ),
        )
        graph = base.antecedent_graph()  # fresh copy with every node
        intra_scs: list[tuple[str, str]] = []
        node_map = base.node_map
        mapped: list[tuple[str, str]] = []
        for seller, buyer in arcs:
            s = node_map.get(seller, seller)
            b = node_map.get(buyer, buyer)
            if s == b:
                intra_scs.append((seller, buyer))
            else:
                mapped.append((s, b))
        graph.add_arcs(mapped, EColor.TRADING)
        return TPIIN(
            graph=graph,
            registry=base.registry,
            node_map=dict(node_map),
            intra_scs_trades=intra_scs,
            scs_subgraphs=dict(base.scs_subgraphs),
            arc_provenance=dict(base.arc_provenance),
        )

    # ------------------------------------------------------------------
    def figure_stats(self) -> dict[str, str]:
        """Node/edge counts matching the captions of Figs. 11-14."""
        return {
            "G1 (Fig. 11)": (
                f"{self.config.directors} directors, "
                f"{self.config.legal_persons} legal persons, "
                f"{self.interdependence.number_of_links} interdependence links"
            ),
            "G2 (Fig. 12)": (
                f"{self.influence.number_of_persons} persons, "
                f"{self.influence.number_of_companies} companies, "
                f"{self.influence.number_of_influences} influence arcs"
            ),
            "G3 (Fig. 13)": (
                f"{self.investment.number_of_companies} companies, "
                f"{self.investment.number_of_arcs} investment arcs"
            ),
        }


def generate_province(config: ProvinceConfig | None = None) -> ProvincialDataset:
    """Generate the provincial dataset for ``config`` (defaults to paper scale)."""
    config = config or ProvinceConfig()
    plan_rng = derive_rng(config.seed, "clusters")
    sizes = plan_cluster_sizes(
        config.companies,
        config.target_suspicious_share,
        max_fraction=config.max_cluster_fraction,
        rng=plan_rng,
    )
    sizes.sort(reverse=True)
    # Each cluster needs a legal person of its own: a small province can
    # plan more singletons than it has legal persons, so fold the two
    # smallest clusters together until the people fit.
    while len(sizes) > config.legal_persons:
        smallest = sizes.pop()
        sizes[-1] += smallest
        sizes.sort(reverse=True)

    clusters: list[ClusterPlan] = []
    company_counter = 0
    for index, size in enumerate(sizes):
        ids = [f"C{company_counter + k:05d}" for k in range(size)]
        company_counter += size
        clusters.append(ClusterPlan(index=index, company_ids=ids))

    _allocate_people(clusters, config)

    registry = EntityRegistry()
    entity_rng = derive_rng(config.seed, "entities")
    for cluster in clusters:
        holding_scale = "large" if cluster.size >= 10 else "small"
        industry = str(entity_rng.choice(INDUSTRIES))
        for i, company_id in enumerate(cluster.company_ids):
            registry.add_company(
                make_company(
                    company_id,
                    entity_rng,
                    industry=industry,
                    scale=holding_scale if i == 0 else "small",
                )
            )

    influence_rng = derive_rng(config.seed, "influence")
    g2, lp_of = build_influence(
        clusters,
        family_direct_lp_share=config.family_direct_lp_share,
        director_companies_range=config.director_companies_range,
        rng=influence_rng,
        anchor_base=config.anchor_base,
        anchor_divisor=config.anchor_divisor,
    )

    person_rng = derive_rng(config.seed, "persons")
    companies_of_lp: dict[str, list[str]] = {}
    for company, lp in lp_of.items():
        companies_of_lp.setdefault(lp, []).append(company)
    for cluster in clusters:
        for lp_id in cluster.lp_ids:
            registry.add_person(
                make_legal_person(
                    lp_id,
                    tuple(sorted(companies_of_lp.get(lp_id, ()))),
                    person_rng,
                    chairman=lp_id in cluster.family_ids,
                )
            )
        for director_id in cluster.director_ids:
            registry.add_person(make_director(director_id, person_rng))

    all_person_ids = [
        pid for cluster in clusters for pid in (*cluster.lp_ids, *cluster.director_ids)
    ]
    inter_rng = derive_rng(config.seed, "interdependence")
    g1 = build_interdependence(
        clusters, all_person_ids, config.director_interlock_probability, inter_rng
    )

    invest_rng = derive_rng(config.seed, "investment")
    gi = build_investment(
        clusters,
        extra_arc_share=config.investment_extra_arc_share,
        mutual_pairs=config.mutual_investment_pairs,
        rng=invest_rng,
        attach_both_probability=config.dual_holding_attach_both,
    )

    return ProvincialDataset(
        config=config,
        registry=registry,
        interdependence=g1,
        influence=g2,
        investment=gi,
        clusters=clusters,
        lp_of=lp_of,
    )


def _allocate_people(clusters: list[ClusterPlan], config: ProvinceConfig) -> None:
    """Distribute the LP and director budgets across clusters (exact totals)."""
    rng = derive_rng(config.seed, "people-allocation")
    n_companies = config.companies
    f_lo, f_hi = config.family_size_range

    # Legal persons: each cluster needs >= 1; the pool never exceeds the
    # cluster's company count (an LP must serve at least one company).
    lp_quota = [
        max(1, min(c.size, int(round(c.size * config.legal_persons / n_companies))))
        for c in clusters
    ]
    _rebalance(lp_quota, config.legal_persons, caps=[c.size for c in clusters])

    director_quota = [
        int(round(c.size * config.directors / n_companies)) for c in clusters
    ]
    _rebalance(
        director_quota,
        config.directors,
        caps=[DIRECTORS_PER_COMPANY * c.size for c in clusters],
        least=0,
    )

    lp_counter = 0
    director_counter = 0
    for cluster, lp_n, d_n in zip(clusters, lp_quota, director_quota):
        family_n = min(int(rng.integers(f_lo, f_hi + 1)), lp_n)
        ids = [f"L{lp_counter + k:05d}" for k in range(lp_n)]
        lp_counter += lp_n
        cluster.lp_ids = ids
        cluster.family_ids = ids[:family_n]
        cluster.director_ids = [f"D{director_counter + k:05d}" for k in range(d_n)]
        director_counter += d_n


def _rebalance(quota: list[int], total: int, caps: list[int], *, least: int = 1) -> None:
    """Adjust ``quota`` in place so it sums to ``total`` within ``caps``.

    Lowering stops at 1 per cluster; only when that cannot reach
    ``total`` does it go on down to ``least``.
    """
    order = sorted(range(len(quota)), key=lambda i: -caps[i])
    floor = 1
    guard = 0
    while sum(quota) != total:
        diff = total - sum(quota)
        moved = False
        for i in order:
            if diff > 0 and quota[i] < caps[i]:
                quota[i] += 1
                diff -= 1
                moved = True
            elif diff < 0 and quota[i] > floor:
                quota[i] -= 1
                diff += 1
                moved = True
            if diff == 0:
                break
        guard += 1
        if not moved and floor > least:
            floor = least
        elif not moved or guard > 10_000:
            raise DataGenError(
                "cannot rebalance people quotas: totals are infeasible for the caps"
            )
