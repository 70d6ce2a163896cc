"""Registry-style CSV ingestion (the paper's information sources).

Fig. 4 feeds the TPIIN build from registry extracts: shareholding
structures and director lists from the CSRC, kinship from the household
registration department (HRDPSC), and trading relationships from the
provincial tax offices (PTAOs).  This module defines a three-file CSV
interchange format shaped like those extracts and loads it into the
homogeneous source graphs, the entity registry and the shareholding
register:

``persons.csv``
    ``person_id,name,positions`` — positions is a ``|``-separated subset
    of CB/CEO/S/D (the raw 15-combination vocabulary; the role algebra
    reduces it).
``companies.csv``
    ``company_id,name,industry,region,scale``.
``relations.csv``
    ``kind,source,target,value`` where kind is one of ``kinship``,
    ``interlocking``, ``legal_person``, ``ceo``, ``chairman``,
    ``director``, ``investment`` (value = stake fraction) and
    ``trading``.

:func:`load_registry_csvs` reads a directory; :func:`write_registry_csvs`
exports a generated provincial dataset in the same format, and the two
round-trip (tested).
"""

from __future__ import annotations

import csv
import json
from collections.abc import Container
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import SerializationError
from repro.graph.gcpause import gc_paused
from repro.model.colors import (
    AffiliationKind,
    InfluenceKind,
    InterdependenceKind,
    RelationKind,
)
from repro.model.entities import Company, EntityRegistry, Person
from repro.model.homogeneous import (
    AffiliationGraph,
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)
from repro.fusion.pipeline import fuse
from repro.model.roles import Role
from repro.weights.ownership import ShareholdingRegister

if TYPE_CHECKING:
    from repro.datagen.province import ProvincialDataset
    from repro.fusion.pipeline import FusionResult

__all__ = [
    "DEFAULT_INVESTMENT_THRESHOLD",
    "ArcLine",
    "ArcLineReject",
    "RegistryBundle",
    "load_registry_csvs",
    "parse_arc_ndjson",
    "write_registry_csvs",
]

_INFLUENCE_KINDS = {
    "legal_person": InfluenceKind.CEO_OF,
    "ceo": InfluenceKind.CEO_OF,
    "chairman": InfluenceKind.CB_OF,
    "director": InfluenceKind.D_OF,
    "executive_director": InfluenceKind.CEO_AND_D_OF,
}

# The graph a ``relations.csv`` row feeds.
_G1, _G2, _GI, _G4, _AFFILIATION = "G1", "G2", "GI", "G4", "affiliation"

#: ``relations.csv`` kind -> (the graph its row feeds, the row's color).
_RELATION_KINDS: dict[str, tuple[str, Any]] = {
    **{kind.value: (_G1, kind) for kind in InterdependenceKind},
    **{name: (_G2, kind) for name, kind in _INFLUENCE_KINDS.items()},
    "investment": (_GI, RelationKind.INVESTMENT),
    "trading": (_G4, RelationKind.TRADING),
    **{kind.value: (_AFFILIATION, kind) for kind in AffiliationKind},
}
_UNKNOWN_KIND: tuple[None, None] = (None, None)

#: Default major-shareholding threshold turning stakes into GI arcs.
DEFAULT_INVESTMENT_THRESHOLD = 0.5

#: Trading-arc mutation vocabulary of the NDJSON bulk-ingest format
#: (mirrors the service WAL's operations; io sits below service, so the
#: strings are duplicated here rather than imported upward).
_ARC_OPS = frozenset({"add", "remove"})


@dataclass(frozen=True, slots=True)
class ArcLine:
    """One accepted line of an NDJSON trading-arc batch.

    ``index`` is the 0-based line number in the request body, preserved
    so per-line reports line up with what the client sent.
    """

    index: int
    op: str
    seller: str
    buyer: str


@dataclass(frozen=True, slots=True)
class ArcLineReject:
    """One rejected line of an NDJSON batch, with the reason."""

    index: int
    error: str


def parse_arc_ndjson(text: str) -> tuple[list[ArcLine], list[ArcLineReject]]:
    """Parse and normalize an NDJSON trading-arc batch body.

    One JSON object per line: ``{"op": "add"|"remove", "seller": S,
    "buyer": B}``; ``op`` defaults to ``add``; endpoint ids are
    whitespace-stripped.  Blank lines are skipped.  Malformed lines are
    *rejected individually* — registry extracts arrive dirty, so one bad
    row must not void the batch — and reported with their line index so
    the caller can answer a per-line accept/reject report.
    """
    accepted: list[ArcLine] = []
    rejected: list[ArcLineReject] = []
    for index, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            rejected.append(ArcLineReject(index, f"not valid JSON: {exc}"))
            continue
        if not isinstance(payload, dict):
            rejected.append(ArcLineReject(index, "expected a JSON object"))
            continue
        op = payload.get("op", "add")
        if op not in _ARC_OPS:
            rejected.append(
                ArcLineReject(index, f"op must be 'add' or 'remove', got {op!r}")
            )
            continue
        seller = payload.get("seller")
        buyer = payload.get("buyer")
        if not isinstance(seller, str) or not isinstance(buyer, str):
            rejected.append(
                ArcLineReject(index, "seller and buyer must be strings")
            )
            continue
        seller = seller.strip()
        buyer = buyer.strip()
        if not seller or not buyer:
            rejected.append(
                ArcLineReject(index, "seller and buyer must be non-empty")
            )
            continue
        accepted.append(ArcLine(index=index, op=op, seller=seller, buyer=buyer))
    return accepted, rejected


@dataclass
class RegistryBundle:
    """Everything loaded from one registry extract directory."""

    registry: EntityRegistry
    interdependence: InterdependenceGraph
    influence: InfluenceGraph
    investment: InvestmentGraph
    trading: TradingGraph
    shareholdings: ShareholdingRegister = field(default_factory=ShareholdingRegister)
    affiliations: AffiliationGraph = field(default_factory=AffiliationGraph)

    def fuse(
        self,
        *,
        registry: EntityRegistry | None = None,
        affiliations: AffiliationGraph | None = None,
        validate_inputs: bool = True,
        keep_intermediates: bool = False,
    ) -> "FusionResult":
        """Convenience: run the fusion pipeline over the loaded graphs."""
        if registry is None:
            registry = self.registry
        if affiliations is None and self.affiliations.number_of_arcs:
            affiliations = self.affiliations
        return fuse(
            self.interdependence,
            self.influence,
            self.investment,
            self.trading,
            affiliations=affiliations,
            registry=registry,
            validate_inputs=validate_inputs,
            keep_intermediates=keep_intermediates,
        )


def _read_rows(path: Path, expected_header: list[str]) -> list[list[str]]:
    if not path.exists():
        raise SerializationError(f"missing registry file {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected_header:
            raise SerializationError(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {header!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not any(row):
                continue
            if len(row) != len(expected_header):
                raise SerializationError(
                    f"{path}:{lineno}: expected {len(expected_header)} columns"
                )
            rows.append(row)
        return rows


@gc_paused()
def load_registry_csvs(
    directory: str | Path,
    *,
    investment_threshold: float = DEFAULT_INVESTMENT_THRESHOLD,
) -> RegistryBundle:
    """Load ``persons.csv``, ``companies.csv`` and ``relations.csv``.

    Investment relations populate the shareholding register; direct
    company stakes at or above ``investment_threshold`` also become *GI*
    arcs (the paper's "major shareholding" relation).

    Rows are checked in file order, so the first bad row raises with its
    line number; the influence, investment and trading arcs then go in
    with bulk ``DiGraph.add_arcs`` calls.  The load runs with the cyclic
    collector paused (:func:`~repro.graph.gcpause.gc_paused`): it builds only
    long-lived graphs and records, which the pause's exit promotes to
    the oldest generation instead of scanning them while they grow.
    """
    directory = Path(directory)
    registry = EntityRegistry()
    g1 = InterdependenceGraph()
    g2 = InfluenceGraph()
    gi = InvestmentGraph()
    g4 = TradingGraph()
    affiliations = AffiliationGraph()
    shareholdings = ShareholdingRegister()

    person_rows = _read_rows(
        directory / "persons.csv", ["person_id", "name", "positions"]
    )
    pending_persons: dict[str, tuple[str, Role]] = {}
    for person_id, name, positions in person_rows:
        tokens = [t for t in positions.split("|") if t]
        if not tokens:
            raise SerializationError(
                f"person {person_id}: at least one position required"
            )
        try:
            role = Role.from_positions(*tokens)
        except ValueError as exc:
            raise SerializationError(f"person {person_id}: {exc}") from exc
        pending_persons[person_id] = (name, role)
        g1.add_person(person_id)
        g2.add_person(person_id)

    company_rows = _read_rows(
        directory / "companies.csv",
        ["company_id", "name", "industry", "region", "scale"],
    )
    for company_id, name, industry, region, scale in company_rows:
        registry.add_company(
            Company(
                company_id=company_id,
                name=name,
                industry=industry or "general",
                region=region or "domestic",
                scale=scale or "small",
            )
        )
        g2.add_company(company_id)
        gi.add_company(company_id)
        g4.add_company(company_id)

    relation_rows = _read_rows(
        directory / "relations.csv", ["kind", "source", "target", "value"]
    )
    companies = registry.companies
    legal_person_of: dict[str, list[str]] = {}
    # Each graph's arcs in row order, inserted in bulk once every row
    # has passed its checks; G1 and affiliation rows are rare and go in
    # one by one.
    influences: list[tuple[str, str, InfluenceKind]] = []
    investments: list[tuple[str, str]] = []
    trades: list[tuple[str, str]] = []
    for lineno, (kind, source, target, value) in enumerate(relation_rows, start=2):
        graph, color = _RELATION_KINDS.get(kind, _UNKNOWN_KIND)
        if graph is _G4:
            _require(source, companies, "relations.csv", lineno, "company")
            _require(target, companies, "relations.csv", lineno, "company")
            g4.check_arc(source, target)
            trades.append((source, target))
        elif graph is _G2:
            _require(source, pending_persons, "relations.csv", lineno, "person")
            _require(target, companies, "relations.csv", lineno, "company")
            if kind == "legal_person":
                g2.designate_legal_person(source, target)
                legal_person_of.setdefault(source, []).append(target)
            influences.append((source, target, color))
        elif graph is _GI:
            _require(target, companies, "relations.csv", lineno, "company")
            if value:
                # Fractional stake: recorded in the register; becomes a
                # GI arc only at/above the major-shareholding threshold.
                try:
                    fraction = float(value)
                except ValueError as exc:
                    raise SerializationError(
                        f"relations.csv:{lineno}: bad stake fraction {value!r}"
                    ) from exc
                shareholdings.add_stake(source, target, fraction)
                if source not in companies or fraction < investment_threshold:
                    continue
            else:
                # Declared major shareholding with no fraction on file:
                # exactly the paper's GI relation.
                _require(source, companies, "relations.csv", lineno, "company")
            gi.check_arc(source, target)
            investments.append((source, target))
        elif graph is _G1:
            _require(source, pending_persons, "relations.csv", lineno, "person")
            _require(target, pending_persons, "relations.csv", lineno, "person")
            g1.add_link(source, target, color)
        elif graph is _AFFILIATION:
            _require(source, companies, "relations.csv", lineno, "company")
            _require(target, companies, "relations.csv", lineno, "company")
            affiliations.add_affiliation(source, target, color)
        else:
            raise SerializationError(
                f"relations.csv:{lineno}: unknown relation kind {kind!r}"
            )
    # Every endpoint is a declared node already, so the bulk inserts
    # create none; G2's colors go in as runs to keep the row order.
    for color, run in groupby(influences, key=itemgetter(2)):
        g2.graph.add_arcs([(person, company) for person, company, _ in run], color)
    gi.graph.add_arcs(investments, RelationKind.INVESTMENT)
    g4.graph.add_arcs(trades, RelationKind.TRADING)

    for person_id, (name, role) in pending_persons.items():
        registry.add_person(
            Person(
                person_id=person_id,
                name=name,
                role=role,
                legal_person_of=tuple(sorted(legal_person_of.get(person_id, ()))),
            )
        )
    return RegistryBundle(
        registry=registry,
        interdependence=g1,
        influence=g2,
        investment=gi,
        trading=g4,
        shareholdings=shareholdings,
        affiliations=affiliations,
    )


def _require(
    node: str, known: Container[str], filename: str, lineno: int, expected: str
) -> None:
    if node not in known:
        raise SerializationError(
            f"{filename}:{lineno}: {expected} {node!r} is not declared"
        )


def write_registry_csvs(
    dataset: "ProvincialDataset",
    directory: str | Path,
    *,
    trading_probability: float | None = None,
) -> Path:
    """Export a :class:`~repro.datagen.province.ProvincialDataset`.

    ``trading_probability`` adds a sampled trading network; ``None``
    writes relationship data only.  Returns the directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with (directory / "persons.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["person_id", "name", "positions"])
        for person in dataset.registry.persons.values():
            positions = "|".join(
                name
                for name, member in (("CEO", Role.CEO), ("D", Role.D), ("CB", Role.CB))
                if person.role & member
            )
            writer.writerow([person.person_id, person.name, positions])

    with (directory / "companies.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["company_id", "name", "industry", "region", "scale"])
        for company in dataset.registry.companies.values():
            writer.writerow(
                [
                    company.company_id,
                    company.name,
                    company.industry,
                    company.region,
                    company.scale,
                ]
            )

    with (directory / "relations.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "source", "target", "value"])
        for u, v, kind in dataset.interdependence.graph.edges():
            writer.writerow([kind.value, u, v, ""])
        lp_map = dataset.influence.legal_person_map
        for person, company, _kind in dataset.influence.influences():
            if lp_map.get(company) == person:
                writer.writerow(["legal_person", person, company, ""])
            else:
                writer.writerow(["director", person, company, ""])
        for investor, investee, _kind in dataset.investment.arcs():
            # The generator records major shareholdings without stake
            # fractions; an empty value keeps that meaning on reload.
            writer.writerow(["investment", investor, investee, ""])
        if trading_probability is not None:
            trading = dataset.trading_graph(trading_probability)
            for seller, buyer, _kind in trading.arcs():
                writer.writerow(["trading", seller, buyer, ""])
    return directory
