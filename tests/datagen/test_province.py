"""Unit tests for the provincial dataset generator."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.config import DIRECTORS_PER_COMPANY, ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import DataGenError
from repro.io.registry_io import write_registry_csvs
from repro.model.colors import EColor


@pytest.fixture(scope="module")
def province():
    return generate_province(ProvinceConfig.small(companies=200, seed=3))


class TestEntityCounts:
    def test_exact_counts(self, province):
        cfg = province.config
        assert len(province.registry.companies) == cfg.companies
        lp_count = sum(len(c.lp_ids) for c in province.clusters)
        d_count = sum(len(c.director_ids) for c in province.clusters)
        assert lp_count == cfg.legal_persons
        assert d_count == cfg.directors
        assert len(province.registry.persons) == cfg.legal_persons + cfg.directors

    def test_paper_scale_counts(self):
        ds = generate_province()  # full default: paper scale
        assert len(ds.registry.companies) == 2452
        assert sum(len(c.lp_ids) for c in ds.clusters) == 1350
        assert sum(len(c.director_ids) for c in ds.clusters) == 776

    def test_company_ids_unique_and_ordered(self, province):
        ids = province.company_ids
        assert len(ids) == len(set(ids)) == province.config.companies


class TestStructure:
    def test_source_graphs_validate(self, province):
        province.interdependence.validate()
        province.influence.validate()
        province.investment.validate()

    def test_every_company_has_lp(self, province):
        for company in province.company_ids:
            assert company in province.lp_of
            assert province.influence.legal_person(company) == province.lp_of[company]

    def test_investment_acyclic_by_default(self, province):
        from repro.graph.tarjan import nontrivial_sccs

        assert nontrivial_sccs(province.investment.graph) == []

    def test_planned_share_close_to_target(self, province):
        assert province.planned_suspicious_share == pytest.approx(
            province.config.target_suspicious_share, rel=0.25
        )

    def test_figure_stats_strings(self, province):
        stats = province.figure_stats()
        assert set(stats) == {"G1 (Fig. 11)", "G2 (Fig. 12)", "G3 (Fig. 13)"}


class TestFusionPaths:
    def test_fuse_with_validates(self, province):
        trading = province.trading_graph(0.01)
        result = province.fuse_with(trading, validate=True)
        result.tpiin.validate()

    def test_overlay_equals_full_fusion(self, province):
        trading = province.trading_graph(0.01)
        fused = province.fuse_with(trading).tpiin
        base = province.antecedent_tpiin()
        overlaid = province.overlay_trading(base, 0.01)
        assert set(overlaid.graph.arcs()) == set(fused.graph.arcs())
        assert set(overlaid.graph.nodes()) == set(fused.graph.nodes())
        assert overlaid.intra_scs_trades == fused.intra_scs_trades

    def test_determinism(self):
        cfg = ProvinceConfig.small(companies=120, seed=42)
        a = generate_province(cfg)
        b = generate_province(cfg)
        assert set(a.influence.graph.arcs()) == set(b.influence.graph.arcs())
        assert set(a.investment.graph.arcs()) == set(b.investment.graph.arcs())
        assert {
            (u, v, k) for u, v, k in a.interdependence.graph.edges()
        } == {(u, v, k) for u, v, k in b.interdependence.graph.edges()}

    def test_seed_changes_structure(self):
        a = generate_province(ProvinceConfig.small(companies=120, seed=1))
        b = generate_province(ProvinceConfig.small(companies=120, seed=2))
        assert set(a.influence.graph.arcs()) != set(b.influence.graph.arcs())


class TestMutualInvestment:
    def test_cycles_injected_and_contracted(self):
        cfg = ProvinceConfig.small(companies=120, seed=5)
        cfg = ProvinceConfig(
            companies=cfg.companies,
            legal_persons=cfg.legal_persons,
            directors=cfg.directors,
            seed=cfg.seed,
            mutual_investment_pairs=3,
        )
        ds = generate_province(cfg)
        from repro.graph.tarjan import nontrivial_sccs

        assert nontrivial_sccs(ds.investment.graph) != []
        base = ds.antecedent_tpiin()
        assert base.scs_subgraphs  # contraction recorded provenance
        base.validate()


def _assert_people_placed(ds):
    cfg = ds.config
    assert sum(len(c.lp_ids) for c in ds.clusters) == cfg.legal_persons
    assert sum(len(c.director_ids) for c in ds.clusters) == cfg.directors
    assert all(c.lp_ids for c in ds.clusters)
    assert set(ds.lp_of) == set(ds.company_ids)


class TestSmallProvinces:
    @pytest.mark.parametrize(
        "companies, seed",
        [
            (20, 0),  # 13 planned clusters, 11 legal persons
            (69, 161),  # 38 planned clusters, 37 legal persons
            (41, 186),  # director quotas must drop below 1 per cluster
        ],
    )
    def test_crowded_plans_generate(self, companies, seed):
        ds = generate_province(ProvinceConfig.small(companies=companies, seed=seed))
        _assert_people_placed(ds)

    def test_every_size_from_20_to_70_generates(self):
        for companies in range(20, 71):
            for seed in range(4):
                config = ProvinceConfig.small(companies=companies, seed=seed)
                _assert_people_placed(generate_province(config))

    def test_folding_clusters_keeps_every_company(self):
        # The plan has more clusters than legal persons, so clusters fold
        # down to 12; a fold merges the two smallest and loses no company.
        config = ProvinceConfig(companies=40, legal_persons=12, directors=100, seed=9)
        ds = generate_province(config)
        assert len(ds.clusters) == 12
        assert sum(c.size for c in ds.clusters) == len(ds.registry.companies) == 40

    def test_more_than_three_directors_per_company_rejected(self):
        with pytest.raises(DataGenError, match="40 directors .* 5 companies"):
            ProvinceConfig(companies=5, legal_persons=2, directors=40)

    @settings(max_examples=40, deadline=None)
    @given(
        companies=st.integers(5, 40),
        share=st.floats(0.0, 1.0),
        lp_share=st.floats(0.05, 1.0),
        seed=st.integers(0, 50),
    )
    def test_director_quota_never_exceeds_the_cap(self, companies, share, lp_share, seed):
        config = ProvinceConfig(
            companies=companies,
            legal_persons=max(1, int(companies * lp_share)),
            directors=int(DIRECTORS_PER_COMPANY * companies * share),
            seed=seed,
        )
        try:
            ds = generate_province(config)
        except DataGenError as exc:  # an LP budget the clusters cannot fit
            assert "cannot rebalance" in str(exc)
            return
        _assert_people_placed(ds)
        assert len(ds.registry.companies) == companies
        for cluster in ds.clusters:
            assert len(cluster.director_ids) <= DIRECTORS_PER_COMPANY * cluster.size

    def test_infeasible_people_budget_raises_datagen_error(self):
        # More legal persons than companies: an LP must serve a company.
        config = ProvinceConfig(companies=5, legal_persons=10, directors=1)
        with pytest.raises(DataGenError, match="cannot rebalance"):
            generate_province(config)


def _heavy(companies, seed):
    """The conglomerate-heavy settings of the large benchmark tiers."""
    return ProvinceConfig(
        companies=companies,
        legal_persons=max(2, int(companies * 0.55)),
        directors=max(1, int(companies * 0.316)),
        investment_extra_arc_share=0.20,
        dual_holding_attach_both=0.9,
        seed=seed,
    )


@pytest.mark.parametrize(
    "config, digest",
    [
        (ProvinceConfig.small(), "9a17ce03ebdbfb95"),
        (ProvinceConfig.small(companies=120, seed=29), "bae6c2a77c7aab6f"),
        (ProvinceConfig.small(companies=60, seed=3), "bddec0953e95de04"),
        (ProvinceConfig.small(companies=41, seed=0), "79858124fa58b9d1"),
        (_heavy(1500, 31), "ba2fa875dea48b29"),
        (ProvinceConfig(seed=31), "de60b11599eeac17"),
        # At and near the director cap of 3 per company.
        (ProvinceConfig(companies=5, legal_persons=2, directors=15), "3a8c84e1f6ddbd21"),
        (
            ProvinceConfig(companies=30, legal_persons=10, directors=90, seed=4),
            "ca300d9be4ada2e2",
        ),
        (
            ProvinceConfig(companies=40, legal_persons=25, directors=100, seed=9),
            "ec412bde6ffc999f",
        ),
    ],
)
def test_registry_bytes_are_pinned(tmp_path, config, digest):
    # Pinned from the generator before small provinces could fold
    # clusters: a plan that fitted its people must give the same data.
    directory = write_registry_csvs(generate_province(config), tmp_path)
    h = hashlib.sha256()
    for name in sorted(p.name for p in directory.iterdir()):
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    assert h.hexdigest()[:16] == digest
