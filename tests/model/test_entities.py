"""Unit tests for entity records and the registry."""

import pytest

from repro.errors import DuplicateNodeError
from repro.model.entities import Company, EntityRegistry, Person, Syndicate
from repro.model.roles import Role


class TestPerson:
    def test_legal_person_requires_admissible_role(self):
        with pytest.raises(ValueError, match="legal-person"):
            Person(person_id="p", role=Role.D, legal_person_of=("c",))

    def test_ceo_can_be_legal_person(self):
        person = Person(person_id="p", role=Role.CEO, legal_person_of=("c1", "c2"))
        assert person.is_legal_person

    def test_plain_director(self):
        person = Person(person_id="p", role=Role.D)
        assert not person.is_legal_person


class TestSyndicate:
    def test_requires_two_members(self):
        with pytest.raises(ValueError, match="at least two"):
            Syndicate(syndicate_id="s", members=frozenset({"a"}), kind="person")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Syndicate(syndicate_id="s", members=frozenset({"a", "b"}), kind="blob")

    def test_iterates_sorted(self):
        s = Syndicate(syndicate_id="s", members=frozenset({"b", "a"}), kind="person")
        assert list(s) == ["a", "b"]


class TestRegistry:
    def make(self) -> EntityRegistry:
        reg = EntityRegistry()
        reg.add_person(Person(person_id="p1", role=Role.CEO, legal_person_of=("c1",)))
        reg.add_company(Company(company_id="c1", industry="tea"))
        reg.add_syndicate(
            Syndicate(syndicate_id="s1", members=frozenset({"p1", "p2"}), kind="person")
        )
        return reg

    def test_contains(self):
        reg = self.make()
        assert "p1" in reg and "c1" in reg and "s1" in reg
        assert "zzz" not in reg

    def test_duplicates_rejected(self):
        reg = self.make()
        with pytest.raises(DuplicateNodeError):
            reg.add_person(Person(person_id="p1"))
        with pytest.raises(DuplicateNodeError):
            reg.add_company(Company(company_id="c1"))
        with pytest.raises(DuplicateNodeError):
            reg.add_company(Company(company_id="p1"))  # cross-kind clash
        with pytest.raises(DuplicateNodeError):
            reg.add_person(Person(person_id="c1"))

    def test_describe(self):
        reg = self.make()
        assert "LP" in reg.describe("p1")
        assert "tea" in reg.describe("c1")
        assert "p2" in reg.describe("s1")
        assert reg.describe("???").startswith("Unknown")

    def test_expand_recursive(self):
        reg = self.make()
        reg.add_syndicate(
            Syndicate(
                syndicate_id="s2", members=frozenset({"s1", "p3"}), kind="person"
            )
        )
        assert reg.expand("s2") == frozenset({"p1", "p2", "p3"})
        assert reg.expand("c1") == frozenset({"c1"})
