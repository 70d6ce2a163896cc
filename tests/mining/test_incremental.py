"""Unit tests for the streaming detector."""

import pytest

from repro.errors import MiningError, NotADagError
from repro.fusion.pipeline import fuse
from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.mining.detector import detect
from repro.mining.groups import GroupKind
from repro.mining.incremental import (
    IncrementalDetector,
    _enumerate_root_paths,
    _paths_between,
)
from repro.model.colors import EColor, InfluenceKind
from repro.model.homogeneous import (
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)


def antecedent_only_fig8(fig8) -> TPIIN:
    """Fig. 8's antecedent network with no trading arcs yet."""
    return TPIIN(graph=fig8.antecedent_graph())


def streamed_fig8(fig8, **kwargs) -> IncrementalDetector:
    """Fig. 8's arcs added one at a time: the path that walks the cache."""
    detector = IncrementalDetector(antecedent_only_fig8(fig8), **kwargs)
    for arc in fig8.trading_arcs():
        detector.add_trading_arc(*arc)
    return detector


def syndicate_tpiin() -> TPIIN:
    """Companies a and b form one syndicate that invests in c."""
    g2 = InfluenceGraph()
    g2.add_influence("p1", "a", InfluenceKind.CEO_OF, legal_person=True)
    g2.add_influence("p2", "b", InfluenceKind.CEO_OF, legal_person=True)
    g2.add_influence("p3", "c", InfluenceKind.CEO_OF, legal_person=True)
    gi = InvestmentGraph()
    gi.add_investment("a", "b")
    gi.add_investment("b", "a")
    gi.add_investment("a", "c")
    return fuse(InterdependenceGraph(), g2, gi, TradingGraph()).tpiin


def diamond_influence() -> CSRGraph:
    """Two influence paths r->a->t and r->b->t, then t->u."""
    tpiin = TPIIN.build(
        persons=["r"],
        companies=["a", "b", "t", "u"],
        influence=[("r", "a"), ("r", "b"), ("a", "t"), ("b", "t"), ("t", "u")],
        trading=[("a", "t"), ("u", "a")],
    )
    return CSRGraph.freeze(tpiin.graph, colors=(EColor.INFLUENCE,))


class TestHelpers:
    def test_enumerate_root_paths(self):
        by_end = _enumerate_root_paths(diamond_influence(), "r")
        assert by_end["r"] == [("r",)]
        assert set(by_end["t"]) == {("r", "a", "t"), ("r", "b", "t")}
        assert len(by_end["u"]) == 2

    def test_paths_between(self):
        csr = diamond_influence()
        assert set(_paths_between(csr, "r", "t")) == {
            ("r", "a", "t"),
            ("r", "b", "t"),
        }
        assert _paths_between(csr, "t", "r") == []
        assert _paths_between(csr, "t", "t") == [("t",)]

    def test_paths_between_prunes_unreachable(self):
        assert _paths_between(diamond_influence(), "u", "b") == []


class TestStreaming:
    def test_initial_ingest_matches_batch(self, fig8):
        detector = IncrementalDetector(fig8)
        batch = detect(fig8, engine="faithful")
        assert detector.suspicious_arcs == batch.suspicious_trading_arcs
        assert {g.key() for g in detector.result().groups} == {
            g.key() for g in batch.groups
        }

    def test_arcs_stream_one_by_one(self, fig8):
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        assert len(detector) == 0
        update = detector.add_trading_arc("C3", "C5")
        assert update.applied and update.suspicious
        assert len(update.groups) == 1
        assert update.groups[0].antecedent == "L1"

        update = detector.add_trading_arc("C8", "C4")
        assert update.applied and not update.suspicious
        assert update.groups == ()
        assert detector.suspicious_arcs == {("C3", "C5")}

    def test_duplicate_add_is_idempotent(self, fig8):
        detector = IncrementalDetector(fig8)
        before = detector.result().group_count
        update = detector.add_trading_arc("C3", "C5")
        assert not update.applied
        assert update.suspicious  # still reports the arc's state
        assert detector.result().group_count == before

    def test_remove_reverts_counts(self, fig8):
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        for arc in fig8.trading_arcs():
            detector.add_trading_arc(*arc)
        full = detector.result()
        removal = detector.remove_trading_arc("C3", "C5")
        assert removal.applied and removal.group_count == 1
        assert detector.suspicious_arcs == {("C5", "C6"), ("C7", "C8")}
        detector.add_trading_arc("C3", "C5")
        assert detector.result().group_count == full.group_count

    def test_remove_absent_arc(self, fig8):
        detector = IncrementalDetector(fig8)
        update = detector.remove_trading_arc("C1", "C2")
        assert not update.applied

    def test_contains_and_len(self, fig8):
        detector = IncrementalDetector(fig8)
        assert ("C3", "C5") in detector
        assert ("C1", "C8") not in detector
        assert len(detector) == 5

    def test_groups_for_arc(self, fig8):
        detector = IncrementalDetector(fig8)
        groups = detector.groups_for_arc("C5", "C6")
        assert len(groups) == 1
        assert groups[0].members == frozenset({"B1", "C5", "C6"})
        assert detector.groups_for_arc("C8", "C4") == []


class TestPathCache:
    def test_stats_track_hits_and_misses(self, fig8):
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        detector.add_trading_arc("C3", "C5")
        first = detector.path_cache_stats
        assert first.misses >= 1 and first.hits == 0
        detector.remove_trading_arc("C3", "C5")
        detector.add_trading_arc("C3", "C5")  # same roots -> warm cache
        second = detector.path_cache_stats
        assert second.hits >= 1
        assert 0.0 < second.hit_rate <= 1.0
        assert second.capacity == 4096
        payload = second.to_dict()
        assert payload["hits"] == second.hits
        assert payload["hit_rate"] == second.hit_rate

    def test_lru_cap_evicts_oldest(self, fig8):
        detector = streamed_fig8(fig8, max_cached_roots=1)
        stats = detector.path_cache_stats
        assert stats.capacity == 1
        assert stats.size <= 1
        assert stats.evictions >= 1  # fig8 touches several distinct roots

    def test_unbounded_cache(self, fig8):
        detector = streamed_fig8(fig8, max_cached_roots=None)
        stats = detector.path_cache_stats
        assert stats.capacity is None
        assert stats.size >= 2
        assert stats.evictions == 0

    def test_capped_detector_still_matches_batch(self, fig8):
        capped = streamed_fig8(fig8, max_cached_roots=1)
        batch = detect(fig8, engine="faithful")
        assert {g.key() for g in capped.result().groups} == {
            g.key() for g in batch.groups
        }

    def test_invalid_cap_rejected(self, fig8):
        with pytest.raises(MiningError, match="max_cached_roots"):
            IncrementalDetector(fig8, max_cached_roots=0)

    def test_zero_hit_rate_on_fresh_detector(self, fig8):
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        assert detector.path_cache_stats.hit_rate == 0.0


class TestArcQueries:
    def test_trading_arcs_lists_live_set(self, fig8):
        detector = IncrementalDetector(fig8)
        arcs = detector.trading_arcs()
        assert len(arcs) == 5 and ("C3", "C5") in arcs
        detector.remove_trading_arc("C3", "C5")
        assert ("C3", "C5") not in detector.trading_arcs()

    def test_is_suspicious_arc(self, fig8):
        detector = IncrementalDetector(fig8)
        assert detector.is_suspicious_arc("C3", "C5")
        assert not detector.is_suspicious_arc("C8", "C4")  # present, clean
        assert not detector.is_suspicious_arc("C1", "C2")  # absent


class TestValidation:
    def test_self_trade_rejected(self, fig8):
        detector = IncrementalDetector(fig8)
        with pytest.raises(MiningError, match="self trade"):
            detector.add_trading_arc("C5", "C5")

    def test_unknown_endpoint_rejected(self, fig8):
        detector = IncrementalDetector(fig8)
        with pytest.raises(MiningError, match="unknown"):
            detector.add_trading_arc("C5", "C99")

    def test_person_endpoint_rejected(self, fig8):
        detector = IncrementalDetector(fig8)
        with pytest.raises(MiningError, match="not a company"):
            detector.add_trading_arc("C5", "L1")


class TestCountMode:
    def test_count_mode_matches(self, fig8):
        counting = IncrementalDetector(fig8)
        batch = detect(fig8, engine="faithful")
        assert counting.result().group_count == batch.group_count
        assert counting.result().simple_group_count == 3
        assert (
            counting.result().suspicious_trading_arcs
            == batch.suspicious_trading_arcs
        )

    def test_count_mode_removal(self, fig8):
        counting = IncrementalDetector(fig8)
        counting.remove_trading_arc("C3", "C5")
        assert counting.result().group_count == 2


class TestSpecialShapes:
    def test_circle_arc(self):
        tpiin = TPIIN.build(
            persons=["a"],
            companies=["c4", "c5"],
            influence=[("a", "c4"), ("c4", "c5")],
        )
        detector = IncrementalDetector(tpiin)
        update = detector.add_trading_arc("c5", "c4")
        assert update.suspicious
        assert update.groups[0].kind is GroupKind.CIRCLE

    def test_intra_scs_arc(self):
        g2 = InfluenceGraph()
        g2.add_influence("p1", "a", InfluenceKind.CEO_OF, legal_person=True)
        g2.add_influence("p2", "b", InfluenceKind.CEO_OF, legal_person=True)
        gi = InvestmentGraph()
        gi.add_investment("a", "b")
        gi.add_investment("b", "a")
        tpiin = fuse(InterdependenceGraph(), g2, gi, TradingGraph()).tpiin
        detector = IncrementalDetector(tpiin)
        update = detector.add_trading_arc("a", "b")
        assert update.suspicious
        assert update.groups[0].kind is GroupKind.SCS

    def test_small_province_stream_matches_batch(self, small_province_tpiin):
        batch = detect(small_province_tpiin, engine="faithful")
        antecedent = TPIIN(
            graph=small_province_tpiin.antecedent_graph(),
            node_map=dict(small_province_tpiin.node_map),
            scs_subgraphs=dict(small_province_tpiin.scs_subgraphs),
        )
        detector = IncrementalDetector(antecedent)
        for arc in small_province_tpiin.trading_arcs():
            detector.add_trading_arc(*arc)
        assert detector.suspicious_arcs == batch.suspicious_trading_arcs
        assert {g.key() for g in detector.result().groups} == {
            g.key() for g in batch.groups
        }


class TestSeed:
    def test_seed_on_non_empty_detector_raises(self, fig8):
        detector = IncrementalDetector(fig8)
        with pytest.raises(MiningError, match="empty detector"):
            detector.seed([("C8", "C3")])
        assert len(detector) == 5

    def test_unknown_endpoint_names_the_arc_and_leaves_detector_empty(self, fig8):
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        with pytest.raises(MiningError, match=r"seed arc \('C5' -> 'C99'\)"):
            detector.seed([("C3", "C5"), ("C5", "C99"), ("C5", "C6")])
        assert len(detector) == 0
        detector.seed([("C3", "C5")])
        assert detector.suspicious_arcs == {("C3", "C5")}

    def test_repeated_arcs_load_once_in_first_seen_order(self, fig8):
        arcs = list(fig8.trading_arcs())
        detector = IncrementalDetector(antecedent_only_fig8(fig8))
        detector.seed([*reversed(arcs), *arcs])
        assert detector.trading_arcs() == list(reversed(arcs))

    def test_two_originals_on_one_contracted_arc_share_its_groups(self):
        tpiin = syndicate_tpiin()
        syndicate = tpiin.node_map["a"]
        assert tpiin.node_map["b"] == syndicate
        detector = IncrementalDetector(tpiin)
        detector.seed([("a", "c"), ("b", "c"), ("a", "b")])
        streamed = IncrementalDetector(tpiin)
        expected = {g.key() for g in streamed.add_trading_arc("a", "c").groups}
        assert expected
        for seller in ("a", "b"):
            groups = detector.groups_for_arc(seller, "c")
            assert {g.trading_arc for g in groups} == {(syndicate, "c")}
            assert {g.key() for g in groups} == expected
        (scs,) = detector.groups_for_arc("a", "b")
        assert scs.kind is GroupKind.SCS

    def test_cyclic_antecedent_network_is_rejected(self):
        cyclic = TPIIN.build(
            persons=["p"],
            companies=["a", "b", "c"],
            influence=[("p", "a"), ("a", "b"), ("b", "a"), ("a", "c")],
        )
        with pytest.raises(NotADagError):
            IncrementalDetector(cyclic)


class TestLiveViews:
    def test_component_result_holds_the_groups_of_its_component(self, fig8):
        tpiin = syndicate_tpiin()
        cases = [
            (IncrementalDetector(fig8), list(fig8.companies())),
            (IncrementalDetector(tpiin), ["a", "b", "c"]),
        ]
        cases[1][0].seed([("a", "c"), ("b", "c"), ("a", "b"), ("c", "a")])
        for detector, companies in cases:
            result = detector.result()
            assert result.groups
            for company in companies:
                component = detector.component_of(company)
                scoped = detector.component_result(company)
                assert scoped.groups == [
                    g
                    for g in result.groups
                    if detector.component_of(g.trading_arc[0]) == component
                ]
                assert scoped.subtpiin_count == 1

    def test_component_result_of_an_unknown_node_raises(self, fig8):
        with pytest.raises(MiningError, match="unknown"):
            IncrementalDetector(fig8).component_result("C99")

    def test_cross_component_tally_follows_adds_and_removes(self):
        # Two subTPIINs: {p, a, b} and {q, c, d}.
        tpiin = TPIIN.build(
            persons=["p", "q"],
            companies=["a", "b", "c", "d"],
            influence=[("p", "a"), ("p", "b"), ("q", "c"), ("q", "d")],
            trading=[("a", "b"), ("a", "c")],
        )
        detector = IncrementalDetector(tpiin)
        assert detector.component_count == 2
        assert detector.result().cross_component_trades == 1
        detector.add_trading_arc("d", "b")
        detector.add_trading_arc("c", "d")
        assert detector.result().cross_component_trades == 2
        detector.remove_trading_arc("a", "c")
        detector.remove_trading_arc("a", "c")  # absent: no change
        assert detector.result().cross_component_trades == 1
        assert detector.component_result("a").total_trading_arcs == 1
        assert detector.component_result("q").total_trading_arcs == 1

    def test_batch_result_mines_a_fused_arc_once(self):
        tpiin = syndicate_tpiin()
        arcs = [("a", "c"), ("b", "c"), ("a", "b")]
        detector = IncrementalDetector(tpiin)
        detector.seed(arcs)
        batch = detect(tpiin.with_trading_arcs(arcs), engine="faithful")
        live = detector.result()
        assert sorted(g.key() for g in live.groups) == sorted(g.key() for g in batch.groups)
        assert live.total_trading_arcs == batch.total_trading_arcs == 2
        assert live.cross_component_trades == batch.cross_component_trades
        # One fused arc, one subTPIIN: the scoped read mines it once too.
        scoped = detector.component_result("c")
        assert scoped.group_count == live.group_count == batch.group_count
        assert scoped.total_trading_arcs == batch.total_trading_arcs

    def test_antecedent_is_shared_and_trading_free(self, fig8):
        detector = IncrementalDetector(fig8)
        assert detector.antecedent is detector.antecedent
        assert list(detector.antecedent.trading_arcs()) == []
        assert detector.antecedent.graph.number_of_nodes() == fig8.graph.number_of_nodes()

