"""Entity records: persons, companies and syndicates.

The mining algorithms operate on bare node identifiers; these records
carry the registry-side information (roles, legal-person designations,
industry, region, member provenance of contracted syndicates) that the
data generators produce and the investigation / ITE layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DuplicateNodeError
from repro.model.roles import Role, admissible_legal_person

__all__ = ["Person", "Company", "Syndicate", "EntityRegistry"]


@dataclass(frozen=True, slots=True)
class Person:
    """A natural person appearing in the source registries.

    ``legal_person_of`` lists the companies this person represents as
    legal person (LP); the LP role constraint of Section 4.1 is enforced
    at construction.
    """

    person_id: str
    name: str = ""
    role: Role = Role.D
    legal_person_of: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.legal_person_of and not admissible_legal_person(self.role):
            raise ValueError(
                f"person {self.person_id} holds role {self.role.label()} which "
                "may not carry a legal-person designation"
            )

    @property
    def is_legal_person(self) -> bool:
        return bool(self.legal_person_of)


@dataclass(frozen=True, slots=True)
class Company:
    """A legally and separately registered taxpayer.

    Every company must have exactly one legal person (Section 4.1: "a
    unique link with a LP"); the registry enforces the constraint when a
    company and its people are both registered.
    """

    company_id: str
    name: str = ""
    industry: str = "general"
    region: str = "domestic"
    scale: str = "small"  # "small" | "large": drives the role model in datagen
    # Declared registered capital (currency units); None when the source
    # registry did not report it.  The missing-trader detector weighs
    # trading throughput against it.
    registered_capital: float | None = None


@dataclass(frozen=True, slots=True)
class Syndicate:
    """A contracted node: a set of persons or companies acting as one.

    Person syndicates arise from contracting interdependence links
    (kinship / interlocking, e.g. node *B* of Fig. 3(b)); company
    syndicates arise from contracting strongly connected investment
    subgraphs.  ``members`` records provenance so that mined groups can
    be expanded back to the original registry entities, and ``via`` the
    relationship kinds (kinship, interlocking, mutual investment) that
    caused the merge — the explanation layer cites them.
    """

    syndicate_id: str
    members: frozenset[str]
    kind: str  # "person" | "company"
    via: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("person", "company"):
            raise ValueError(f"unknown syndicate kind {self.kind!r}")
        if len(self.members) < 2:
            raise ValueError("a syndicate must merge at least two members")

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.members))


@dataclass
class EntityRegistry:
    """Lookup table from node identifiers to entity records.

    The registry survives fusion: syndicates are registered alongside
    the persons/companies they absorb, so any node id appearing in a
    TPIIN — original or contracted — resolves here.
    """

    persons: dict[str, Person] = field(default_factory=dict)
    companies: dict[str, Company] = field(default_factory=dict)
    syndicates: dict[str, Syndicate] = field(default_factory=dict)

    def add_person(self, person: Person) -> None:
        if person.person_id in self.persons:
            raise DuplicateNodeError(f"person {person.person_id} already registered")
        if person.person_id in self.companies or person.person_id in self.syndicates:
            raise DuplicateNodeError(
                f"identifier {person.person_id} already used by another entity"
            )
        self.persons[person.person_id] = person

    def add_company(self, company: Company) -> None:
        if company.company_id in self.companies:
            raise DuplicateNodeError(f"company {company.company_id} already registered")
        if company.company_id in self.persons or company.company_id in self.syndicates:
            raise DuplicateNodeError(
                f"identifier {company.company_id} already used by another entity"
            )
        self.companies[company.company_id] = company

    def add_syndicate(self, syndicate: Syndicate) -> None:
        if syndicate.syndicate_id in self.syndicates:
            raise DuplicateNodeError(
                f"syndicate {syndicate.syndicate_id} already registered"
            )
        self.syndicates[syndicate.syndicate_id] = syndicate

    def __contains__(self, node_id: str) -> bool:
        return (
            node_id in self.persons
            or node_id in self.companies
            or node_id in self.syndicates
        )

    def describe(self, node_id: str) -> str:
        """One-line description of any node id, for reports."""
        if node_id in self.persons:
            person = self.persons[node_id]
            lp = " LP" if person.is_legal_person else ""
            return f"Person {node_id} ({person.role.label()}{lp})"
        if node_id in self.companies:
            company = self.companies[node_id]
            return f"Company {node_id} ({company.industry}, {company.region})"
        if node_id in self.syndicates:
            syndicate = self.syndicates[node_id]
            members = ", ".join(sorted(syndicate.members))
            return f"Syndicate {node_id} [{syndicate.kind}: {members}]"
        return f"Unknown node {node_id}"

    def expand(self, node_id: str) -> frozenset[str]:
        """Original registry ids behind ``node_id`` (recursively).

        Syndicates of syndicates can arise when the contraction chain
        merges a syndicate with a further person; expansion flattens the
        chain down to primitive person/company ids.
        """
        if node_id not in self.syndicates:
            return frozenset((node_id,))
        out: set[str] = set()
        for member in self.syndicates[node_id].members:
            out |= self.expand(member)
        return frozenset(out)
