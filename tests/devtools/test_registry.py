"""The rule registries: every catalogued class, both phases, one id each."""

from repro.devtools import all_project_rules, all_rules, get_rule
from repro.devtools.project_rules import (
    DeadExportRule,
    HotPathAllocationRule,
    LayeringRule,
    LockDisciplineRule,
)
from repro.devtools.rules import (
    DataclassSlotsRule,
    DunderAllRule,
    ForbiddenDependencyRule,
    FrozenMutationRule,
    NoBareExceptRule,
    NoFunctionBodyImportRule,
    NoPrintRule,
    NoRecursiveTraversalRule,
    RawColorLiteralRule,
    UnseededRandomnessRule,
)

PER_FILE = {
    "R001": UnseededRandomnessRule,
    "R002": NoRecursiveTraversalRule,
    "R003": DataclassSlotsRule,
    "R004": DunderAllRule,
    "R005": ForbiddenDependencyRule,
    "R006": NoBareExceptRule,
    "R007": NoPrintRule,
    "R008": RawColorLiteralRule,
    "R009": FrozenMutationRule,
    "R010": NoFunctionBodyImportRule,
}

PROJECT = {
    "R012": LayeringRule,
    "R013": DeadExportRule,
    "R014": LockDisciplineRule,
    "R015": HotPathAllocationRule,
}


class TestCatalogue:
    def test_per_file_registry_is_exactly_the_catalogue(self):
        registered = {rule.rule_id: type(rule) for rule in all_rules()}
        assert registered == PER_FILE

    def test_project_registry_is_exactly_the_catalogue(self):
        registered = {rule.rule_id: type(rule) for rule in all_project_rules()}
        assert registered == PROJECT

    def test_ids_are_unique_across_both_phases(self):
        ids = [r.rule_id for r in (*all_rules(), *all_project_rules())]
        assert len(ids) == len(set(ids))

    def test_get_rule_resolves_both_phases(self):
        assert isinstance(get_rule("R007"), NoPrintRule)
        assert isinstance(get_rule("R014"), LockDisciplineRule)

    def test_every_rule_carries_id_and_title(self):
        for rule in (*all_rules(), *all_project_rules()):
            assert rule.rule_id.startswith("R") and len(rule.rule_id) == 4
            assert rule.title
