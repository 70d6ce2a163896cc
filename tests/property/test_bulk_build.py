"""The registry loader and the fusion overlay insert arcs in bulk; both
must build exactly what one ``add_*`` call per row or arc builds.

The reference loader below is the row-at-a-time loader through the
homogeneous graphs' own ``add_*`` methods; the reference overlay re-runs
Fig. 5's last stage one arc at a time over the pipeline's saved G123.
Equality covers node order and colors, every row's successor and
predecessor order and colors, and the arc tallies.
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import SerializationError, ValidationError
from repro.fusion.pipeline import fuse
from repro.graph.digraph import DiGraph, UnGraph
from repro.io.registry_io import (
    DEFAULT_INVESTMENT_THRESHOLD,
    _read_rows,
    load_registry_csvs,
    write_registry_csvs,
)
from repro.model.colors import (
    AffiliationKind,
    EColor,
    InfluenceKind,
    InterdependenceKind,
    VColor,
)
from repro.model.entities import Company, EntityRegistry, Person
from repro.model.homogeneous import (
    AffiliationGraph,
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)
from repro.model.roles import Role
from repro.weights.ownership import ShareholdingRegister

_INFLUENCE = {
    "legal_person": InfluenceKind.CEO_OF,
    "ceo": InfluenceKind.CEO_OF,
    "chairman": InfluenceKind.CB_OF,
    "director": InfluenceKind.D_OF,
    "executive_director": InfluenceKind.CEO_AND_D_OF,
}


def per_row_load(directory: Path, threshold: float = DEFAULT_INVESTMENT_THRESHOLD):
    """Each row through its graph's ``add_*`` call, in file order."""
    registry = EntityRegistry()
    g1, g2 = InterdependenceGraph(), InfluenceGraph()
    gi, g4 = InvestmentGraph(), TradingGraph()
    affiliations, stakes = AffiliationGraph(), ShareholdingRegister()
    persons: dict[str, tuple[str, Role]] = {}
    for person_id, name, positions in _read_rows(
        directory / "persons.csv", ["person_id", "name", "positions"]
    ):
        persons[person_id] = (name, Role.from_positions(*positions.split("|")))
        g1.add_person(person_id)
        g2.add_person(person_id)
    for company_id, name, industry, region, scale in _read_rows(
        directory / "companies.csv", ["company_id", "name", "industry", "region", "scale"]
    ):
        registry.add_company(Company(company_id, name, industry, region, scale))
        g2.add_company(company_id)
        gi.add_company(company_id)
        g4.add_company(company_id)
    companies = registry.companies

    def require(node, known, lineno, expected):
        if node not in known:
            raise SerializationError(
                f"relations.csv:{lineno}: {expected} {node!r} is not declared"
            )

    lp_of: dict[str, list[str]] = {}
    rows = _read_rows(directory / "relations.csv", ["kind", "source", "target", "value"])
    for lineno, (kind, source, target, value) in enumerate(rows, start=2):
        if kind in ("kinship", "interlocking"):
            require(source, persons, lineno, "person")
            require(target, persons, lineno, "person")
            g1.add_link(source, target, InterdependenceKind(kind))
        elif kind in _INFLUENCE:
            require(source, persons, lineno, "person")
            require(target, companies, lineno, "company")
            lp = kind == "legal_person"
            g2.add_influence(source, target, _INFLUENCE[kind], legal_person=lp)
            if lp:
                lp_of.setdefault(source, []).append(target)
        elif kind == "investment":
            require(target, companies, lineno, "company")
            if value:
                try:
                    fraction = float(value)
                except ValueError as exc:
                    raise SerializationError(
                        f"relations.csv:{lineno}: bad stake fraction {value!r}"
                    ) from exc
                stakes.add_stake(source, target, fraction)
                if source in companies and fraction >= threshold:
                    gi.add_investment(source, target)
            else:
                require(source, companies, lineno, "company")
                gi.add_investment(source, target)
        elif kind in {k.value for k in AffiliationKind}:
            require(source, companies, lineno, "company")
            require(target, companies, lineno, "company")
            affiliations.add_affiliation(source, target, kind)
        elif kind == "trading":
            require(source, companies, lineno, "company")
            require(target, companies, lineno, "company")
            g4.add_trade(source, target)
        else:
            raise SerializationError(
                f"relations.csv:{lineno}: unknown relation kind {kind!r}"
            )
    for person_id, (name, role) in persons.items():
        registry.add_person(
            Person(person_id, name, role, tuple(sorted(lp_of.get(person_id, ()))))
        )
    return registry, g1, g2, gi, g4, affiliations, stakes


def digraph_layout(graph: DiGraph):
    """Everything insertion order decides, row by row."""
    return (
        [
            (
                node,
                graph.node_color(node),
                [(h, graph.arc_colors(node, h)) for h in graph.successors(node)],
                list(graph.predecessors(node)),
            )
            for node in graph.nodes()
        ],
        graph.number_of_arcs(),
        {c: graph.number_of_arcs(c) for c in {c for _, _, c in graph.arcs()}},
    )


def ungraph_layout(graph: UnGraph):
    return (
        [
            (
                node,
                graph.node_color(node),
                [(v, graph.edge_colors(node, v)) for v in graph.neighbors(node)],
            )
            for node in graph.nodes()
        ],
        graph.number_of_edges(),
    )


def per_arc_overlay(g123: DiGraph, trading: TradingGraph, node_map):
    """Fig. 5's trading overlay, one ``add_node``/``add_arc`` per arc."""
    fused = DiGraph()
    provenance: dict[tuple, set[str]] = {}
    for node in g123.nodes():
        fused.add_node(node, g123.node_color(node))
    for tail, head, color in g123.arcs():
        fused.add_arc(tail, head, EColor.INFLUENCE)
        provenance.setdefault((tail, head), set()).add(str(getattr(color, "value", color)))
    intra = []
    for seller, buyer, _color in trading.arcs():
        tail, head = node_map.get(seller, seller), node_map.get(buyer, buyer)
        fused.add_node(tail, VColor.COMPANY)
        fused.add_node(head, VColor.COMPANY)
        if tail == head:
            intra.append((seller, buyer))
            continue
        fused.add_arc(tail, head, EColor.TRADING)
    return fused, intra, {arc: frozenset(labels) for arc, labels in provenance.items()}


@st.composite
def registry_extracts(draw):
    """A generated province, its trading probability, and extra stake,
    affiliation and influence-kind rows with where each goes in
    ``relations.csv``."""
    small = ProvinceConfig.small(
        companies=draw(st.integers(20, 45)), seed=draw(st.integers(0, 60))
    )
    dataset = generate_province(
        ProvinceConfig(
            companies=small.companies,
            legal_persons=small.legal_persons,
            directors=small.directors,
            mutual_investment_pairs=draw(st.integers(0, 3)),
            seed=small.seed,
        )
    )
    companies = sorted(dataset.registry.companies)
    persons = sorted(dataset.registry.persons)
    company = st.sampled_from(companies)
    extra: list[list[str]] = []
    # Stakes: fractional, below and above the GI threshold, from
    # companies and from persons; at most 0.3 each and three per
    # investee, so no company's stakes pass 100%.
    per_investee: dict[str, int] = {}
    for owner, investee, share in draw(
        st.lists(
            st.tuples(st.sampled_from(companies + persons), company, st.integers(1, 30)),
            max_size=12,
        )
    ):
        if owner != investee and per_investee.get(investee, 0) < 3:
            per_investee[investee] = per_investee.get(investee, 0) + 1
            extra.append(["investment", owner, investee, f"{share / 100:.2f}"])
    for source, target, kind in draw(
        st.lists(st.tuples(company, company, st.sampled_from(list(AffiliationKind))), max_size=6)
    ):
        if source != target:
            extra.append([kind.value, source, target, ""])
    for person, target, kind in draw(
        st.lists(
            st.tuples(
                st.sampled_from(persons),
                company,
                st.sampled_from(["ceo", "chairman", "executive_director", "director"]),
            ),
            max_size=8,
        )
    ):
        extra.append([kind, person, target, ""])
    # Insertion points as fractions of the file, drawn before its length is known.
    places = draw(st.lists(st.floats(0.0, 1.0), min_size=len(extra), max_size=len(extra)))
    return dataset, draw(st.sampled_from([0.02, 0.08])), list(zip(places, extra))


def write_extract(directory: Path, dataset, probability: float, extra) -> Path:
    write_registry_csvs(dataset, directory, trading_probability=probability)
    path = directory / "relations.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    for place, row in extra:
        rows.insert(1 + int(place * (len(rows) - 1)), row)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return directory


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(extract=registry_extracts())
def test_bulk_build_equals_per_arc_build(extract):
    with tempfile.TemporaryDirectory() as scratch:
        directory = write_extract(Path(scratch), *extract)
        bundle = load_registry_csvs(directory)
        registry, g1, g2, gi, g4, affiliations, stakes = per_row_load(directory)

    assert ungraph_layout(bundle.interdependence.graph) == ungraph_layout(g1.graph)
    for bulk, reference in (
        (bundle.influence, g2),
        (bundle.investment, gi),
        (bundle.trading, g4),
        (bundle.affiliations, affiliations),
    ):
        assert digraph_layout(bulk.graph) == digraph_layout(reference.graph)
    assert bundle.influence.legal_person_map == g2.legal_person_map
    assert bundle.shareholdings.stakes == stakes.stakes
    assert list(bundle.registry.persons.items()) == list(registry.persons.items())
    assert list(bundle.registry.companies.items()) == list(registry.companies.items())

    # The fused TPIIN: the bulk overlay against one call per arc.
    fusion = bundle.fuse(keep_intermediates=True)
    tpiin = fusion.tpiin
    fused, intra, provenance = per_arc_overlay(
        fusion.intermediates["G123"], bundle.trading, tpiin.node_map
    )
    assert digraph_layout(tpiin.graph) == digraph_layout(fused)
    assert tpiin.intra_scs_trades == intra
    assert tpiin.arc_provenance == provenance
    # ... and the per-row loaded graphs fuse to the same network.
    reference = fuse(
        g1,
        g2,
        gi,
        g4,
        affiliations=affiliations if affiliations.number_of_arcs else None,
        registry=registry,
    ).tpiin
    assert digraph_layout(reference.graph) == digraph_layout(tpiin.graph)
    assert reference.node_map == tpiin.node_map
    assert reference.intra_scs_trades == tpiin.intra_scs_trades
    assert reference.arc_provenance == tpiin.arc_provenance


def _sample(directory: Path, *rows: str) -> Path:
    (directory / "persons.csv").write_text(
        "person_id,name,positions\nL1,Wang Wei,CEO\nL2,Li Min,CEO\nD1,Zhao Lei,D\n"
    )
    (directory / "companies.csv").write_text(
        "company_id,name,industry,region,scale\n"
        "C1,Alpha,retail,domestic,small\nC2,Beta,retail,domestic,small\n"
    )
    (directory / "relations.csv").write_text(
        "kind,source,target,value\n"
        "legal_person,L1,C1,\nlegal_person,L2,C2,\ntrading,C1,C2,\n"
        + "".join(f"{row}\n" for row in rows)
    )
    return directory


@pytest.mark.parametrize(
    "rows, error, message",
    [
        (
            ["director,D1,C2,", "director,DX,C1,"],
            SerializationError,
            "relations.csv:6: person 'DX' is not declared",
        ),
        (
            ["trading,C2,C1,", "trading,C1,CX,"],
            SerializationError,
            "relations.csv:6: company 'CX' is not declared",
        ),
        (
            ["investment,C9,C2,", "trading,C2,C1,"],
            SerializationError,
            "relations.csv:5: company 'C9' is not declared",
        ),
        (
            ["trading,C2,C2,", "trading,C1,CX,"],
            ValidationError,
            "self-arc on 'C2': a company cannot trading itself",
        ),
        (
            ["investment,C1,C1,", "trading,C1,CX,"],
            ValidationError,
            "self-arc on 'C1': a company cannot investment itself",
        ),
        (
            ["investment,L1,C2,0.4", "investment,C1,C2,most"],
            SerializationError,
            "relations.csv:6: bad stake fraction 'most'",
        ),
        (
            ["legal_person,L2,C1,", "trading,C1,CX,"],
            ValidationError,
            "company 'C1' already has legal person 'L1'; cannot also assign 'L2'",
        ),
        (
            ["ownership,C1,C2,", "trading,C1,CX,"],
            SerializationError,
            "relations.csv:5: unknown relation kind 'ownership'",
        ),
    ],
)
def test_bad_rows_raise_as_per_row_loading_does(tmp_path, rows, error, message):
    """The first bad row raises, with its own message and line number,
    before any later row is looked at."""
    directory = _sample(tmp_path, *rows)
    with pytest.raises(error) as bulk:
        load_registry_csvs(directory)
    with pytest.raises(error) as reference:
        per_row_load(directory)
    assert str(bulk.value) == str(reference.value) == message
