"""Unit tests for interdependence edge contraction (G12 -> G12')."""

import pytest

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import FusionError
from repro.fusion.contraction import (
    contract_edge_once,
    contract_interdependence,
    fully_contract_by_edges,
)
from repro.graph.digraph import DiGraph, UnGraph
from repro.model.colors import VColor


def influence_fixture() -> DiGraph:
    g = DiGraph()
    for p in ("p1", "p2", "p3", "solo"):
        g.add_node(p, VColor.PERSON)
    for c in ("c1", "c2", "c3"):
        g.add_node(c, VColor.COMPANY)
    g.add_arc("p1", "c1", "Influence")
    g.add_arc("p2", "c2", "Influence")
    g.add_arc("p3", "c2", "Influence")
    g.add_arc("solo", "c3", "Influence")
    return g


def interdependence_fixture() -> UnGraph:
    u = UnGraph()
    u.add_edge("p1", "p2", "kinship")
    u.add_edge("p2", "p3", "interlocking")
    return u


class TestComponentContraction:
    def test_component_merges_into_one_syndicate(self):
        result = contract_interdependence(influence_fixture(), interdependence_fixture())
        assert len(result.syndicates) == 1
        syndicate_id = next(iter(result.syndicates))
        assert result.syndicates[syndicate_id].members == frozenset({"p1", "p2", "p3"})
        assert result.resolve("p1") == syndicate_id
        assert result.resolve("solo") == "solo"

    def test_arcs_reattached_and_deduped(self):
        result = contract_interdependence(influence_fixture(), interdependence_fixture())
        syndicate_id = next(iter(result.syndicates))
        # p2 -> c2 and p3 -> c2 collapse into one arc.
        assert result.graph.out_degree(syndicate_id) == 2
        assert result.graph.has_arc(syndicate_id, "c1")
        assert result.graph.has_arc(syndicate_id, "c2")

    def test_untouched_persons_survive(self):
        result = contract_interdependence(influence_fixture(), interdependence_fixture())
        assert result.graph.has_node("solo")
        assert result.graph.has_arc("solo", "c3")

    def test_companies_never_merge(self):
        result = contract_interdependence(influence_fixture(), interdependence_fixture())
        for c in ("c1", "c2", "c3"):
            assert result.graph.node_color(c) == VColor.COMPANY

    def test_g1_only_person_merges_too(self):
        influence = influence_fixture()
        inter = interdependence_fixture()
        inter.add_edge("p3", "ghost", "kinship")  # ghost has no influence arcs
        result = contract_interdependence(influence, inter)
        syndicate = next(iter(result.syndicates.values()))
        assert "ghost" in syndicate.members

    def test_company_in_g1_rejected(self):
        influence = influence_fixture()
        inter = UnGraph()
        inter.add_edge("p1", "c1", "kinship")
        with pytest.raises(FusionError, match="company"):
            contract_interdependence(influence, inter)

    def test_empty_interdependence_is_identity(self):
        influence = influence_fixture()
        result = contract_interdependence(influence, UnGraph())
        assert set(result.graph.nodes()) == set(influence.nodes())
        assert result.syndicates == {}


class TestPairwiseEquivalence:
    def test_single_step(self):
        graph, inter, syndicate_id = contract_edge_once(
            influence_fixture(), interdependence_fixture(), "p1", "p2"
        )
        assert graph.has_arc(syndicate_id, "c1")
        assert graph.has_arc(syndicate_id, "c2")
        assert inter.has_edge(syndicate_id, "p3")
        assert not graph.has_node("p1")

    def test_missing_link_rejected(self):
        with pytest.raises(FusionError, match="no interdependence link"):
            contract_edge_once(
                influence_fixture(), interdependence_fixture(), "p1", "p3"
            )

    def test_iterated_equals_component_contraction(self):
        component = contract_interdependence(
            influence_fixture(), interdependence_fixture()
        )
        iterated_graph, _members = fully_contract_by_edges(
            influence_fixture(), interdependence_fixture()
        )
        assert set(iterated_graph.nodes()) == set(component.graph.nodes())
        assert set(iterated_graph.arcs()) == set(component.graph.arcs())


class TestEmptyEdgeIteration:
    def test_fully_contract_with_no_links(self):
        graph, members = fully_contract_by_edges(influence_fixture(), UnGraph())
        assert members == {}
        assert set(graph.nodes()) == set(influence_fixture().nodes())

    def test_syndicate_via_records_link_kinds(self):
        result = contract_interdependence(
            influence_fixture(), interdependence_fixture()
        )
        syndicate = next(iter(result.syndicates.values()))
        assert syndicate.via == frozenset({"kinship", "interlocking"})


@pytest.mark.parametrize("companies, seed", [(120, 1), (200, 3), (400, 8)])
def test_syndicate_via_matches_a_scan_of_every_link(companies, seed):
    """``via`` is bucketed in one pass over the links; it must equal the
    kinds of the links a full scan finds inside each syndicate."""
    dataset = generate_province(ProvinceConfig.small(companies=companies, seed=seed))
    inter = dataset.interdependence.graph
    result = contract_interdependence(dataset.influence.graph, inter)
    assert result.syndicates
    kinds = set()
    for syndicate in result.syndicates.values():
        members = syndicate.members
        scanned = frozenset(
            str(getattr(kind, "value", kind))
            for u, v, kind in inter.edges()
            if u in members and v in members
        )
        assert syndicate.via == scanned
        kinds |= scanned
    assert kinds == {"kinship", "interlocking"}
