"""Configuration objects for the synthetic taxpayer-network generators.

The default :class:`ProvinceConfig` reproduces the scale of the paper's
real provincial dataset (Section 5.1): 776 directors, 1,350 legal
persons and 2,452 companies, with an antecedent structure calibrated so
that roughly 5% of uniformly random trading arcs fall between companies
sharing an antecedent — the share Table 1 reports across every trading
probability setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataGenError

__all__ = [
    "DIRECTORS_PER_COMPANY",
    "ClusterPlan",
    "ProvinceConfig",
    "TradingConfig",
    "PAPER_TRADING_PROBABILITIES",
]


#: Most directors one company takes: a cluster's director quota is
#: capped at this many per company it holds.
DIRECTORS_PER_COMPANY = 3

#: The twenty trading-probability settings of Table 1.
PAPER_TRADING_PROBABILITIES: tuple[float, ...] = (
    0.002,
    0.003,
    0.004,
    0.005,
    0.006,
    0.008,
    0.010,
    0.012,
    0.014,
    0.016,
    0.018,
    0.020,
    0.030,
    0.040,
    0.050,
    0.060,
    0.070,
    0.080,
    0.090,
    0.100,
)


@dataclass(frozen=True, slots=True)
class ProvinceConfig:
    """Parameters of the provincial synthetic dataset.

    Attributes
    ----------
    companies / legal_persons / directors:
        Entity counts; the defaults match the paper's Figs. 11-12.  At
        most ``DIRECTORS_PER_COMPANY`` (3) directors per company.
    target_suspicious_share:
        Desired probability that a uniformly random ordered company pair
        shares an antecedent (drives the business-cluster size mix).
    max_cluster_fraction:
        Upper bound on one business cluster's share of all companies.
    family_size_range:
        Min/max kin persons forming a cluster's controlling family.
    family_direct_lp_share:
        Fraction of a cluster's companies whose legal person is the
        controlling family itself (direct root arcs produce the simple
        groups of Table 1; see DESIGN.md calibration notes).
    investment_extra_arc_share:
        Cross arcs added on top of the cluster's investment tree, as a
        fraction of tree size (path multiplicity -> groups per arc).
    dual_holding_attach_both:
        In conglomerate clusters, probability that a subsidiary is held
        by *both* twin holdings (the diamond produces interior-disjoint
        trail pairs, i.e. simple groups).
    anchor_base / anchor_divisor:
        Anchor directors per conglomerate: ``base + size // divisor``;
        each anchor sits on the management company's board and yields
        one family's worth of complex groups per suspicious pair.
    director_companies_range:
        Min/max companies a director sits on (within one cluster).
    director_interlock_probability:
        Probability that two directors of the same cluster interlock.
    mutual_investment_pairs:
        Company pairs with mutual (cyclic) investment to inject.  The
        paper's province had none; nonzero values exercise the SCS
        contraction path.
    seed:
        Root seed for every derived random stream.
    """

    companies: int = 2452
    legal_persons: int = 1350
    directors: int = 776
    target_suspicious_share: float = 0.0505
    max_cluster_fraction: float = 0.145
    family_size_range: tuple[int, int] = (1, 3)
    family_direct_lp_share: float = 0.18
    investment_extra_arc_share: float = 0.04
    dual_holding_attach_both: float = 0.6
    anchor_base: int = 1
    anchor_divisor: int = 130
    director_companies_range: tuple[int, int] = (1, 3)
    director_interlock_probability: float = 0.35
    mutual_investment_pairs: int = 0
    seed: int = 20170417

    def __post_init__(self) -> None:
        if self.companies < 1:
            raise DataGenError("companies must be positive")
        if self.legal_persons < 1:
            raise DataGenError("legal_persons must be positive")
        if self.directors < 0:
            raise DataGenError("directors must be non-negative")
        if self.directors > DIRECTORS_PER_COMPANY * self.companies:
            raise DataGenError(
                f"{self.directors} directors exceed {DIRECTORS_PER_COMPANY} per "
                f"company for {self.companies} companies"
            )
        if not 0.0 <= self.target_suspicious_share < 1.0:
            raise DataGenError("target_suspicious_share must be in [0, 1)")
        if not 0.0 < self.max_cluster_fraction <= 1.0:
            raise DataGenError("max_cluster_fraction must be in (0, 1]")
        lo, hi = self.family_size_range
        if not 1 <= lo <= hi:
            raise DataGenError("family_size_range must satisfy 1 <= lo <= hi")
        dlo, dhi = self.director_companies_range
        if not 1 <= dlo <= dhi:
            raise DataGenError("director_companies_range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.family_direct_lp_share <= 1.0:
            raise DataGenError("family_direct_lp_share must be in [0, 1]")
        if not 0.0 <= self.investment_extra_arc_share <= 2.0:
            raise DataGenError("investment_extra_arc_share must be in [0, 2]")
        if not 0.0 <= self.dual_holding_attach_both <= 1.0:
            raise DataGenError("dual_holding_attach_both must be in [0, 1]")
        if self.anchor_base < 0 or self.anchor_divisor < 1:
            raise DataGenError("anchor parameters must be non-negative / positive")
        if not 0.0 <= self.director_interlock_probability <= 1.0:
            raise DataGenError("director_interlock_probability must be in [0, 1]")
        if self.mutual_investment_pairs < 0:
            raise DataGenError("mutual_investment_pairs must be non-negative")

    @classmethod
    def small(cls, *, seed: int = 7, companies: int = 120) -> "ProvinceConfig":
        """A scaled-down config for tests and quick examples."""
        return cls(
            companies=companies,
            legal_persons=max(2, int(companies * 0.55)),
            directors=max(1, int(companies * 0.316)),
            seed=seed,
        )


@dataclass(frozen=True, slots=True)
class TradingConfig:
    """Parameters of one random trading network (Gephi-style G(n, p))."""

    probability: float = 0.002
    seed: int = 20170417

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise DataGenError("trading probability must be in [0, 1]")


@dataclass
class ClusterPlan:
    """Internal: the per-cluster layout the province generator executes."""

    index: int
    company_ids: list[str] = field(default_factory=list)
    family_ids: list[str] = field(default_factory=list)
    lp_ids: list[str] = field(default_factory=list)
    director_ids: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.company_ids)

    @property
    def holding(self) -> str:
        return self.company_ids[0]
