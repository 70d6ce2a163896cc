"""Per-rule fixture tests: every rule fires on its bad snippet with the
exact id and line numbers, and stays silent on the matching good one."""

from pathlib import Path

import pytest

from repro.devtools import get_rule, lint_file

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (relative bad fixture, expected diagnostic lines)
BAD_CASES = {
    "R001": ("R001/bad.py", [1, 8, 9, 10]),
    "R002": ("R002/mining/bad.py", [6, 13]),
    "R003": ("R003/mining/bad.py", [7, 12, 17, 22]),
    "R004": ("R004/bad.py", [1, 1, 12]),
    "R005": ("R005/bad.py", [1, 2, 3, 9]),
    "R006": ("R006/bad.py", [7, 14, 18]),
    "R007": ("R007/bad.py", [5, 7]),
    "R008": ("R008/bad.py", [5, 7, 9, 9]),
    "R009": ("R009/bad.py", [11, 15]),
    "R010": ("R010/bad.py", [5, 11, 18, 26]),
}

#: rule id -> fixtures that must stay perfectly silent under that rule
GOOD_CASES = {
    "R001": ["R001/good.py", "R001/datagen/rng.py"],
    "R002": ["R002/mining/good.py", "R002/good_outside_scope.py"],
    "R003": ["R003/mining/good.py", "R003/good_outside_scope.py"],
    "R004": ["R004/good.py"],
    "R005": ["R005/good.py"],
    "R006": ["R006/good.py"],
    "R007": ["R007/good.py", "R007/cli.py"],
    "R008": ["R008/good.py"],
    "R009": ["R009/good.py"],
    "R010": ["R010/good.py"],
}


def _run(rule_id: str, relative: str):
    return lint_file(FIXTURES / relative, rules=[get_rule(rule_id)])


@pytest.mark.parametrize("rule_id", sorted(BAD_CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    relative, expected_lines = BAD_CASES[rule_id]
    diagnostics = _run(rule_id, relative)
    assert [d.rule_id for d in diagnostics] == [rule_id] * len(expected_lines)
    assert [d.line for d in diagnostics] == expected_lines


@pytest.mark.parametrize(
    "rule_id, relative",
    [(rule_id, rel) for rule_id, rels in sorted(GOOD_CASES.items()) for rel in rels],
)
def test_rule_silent_on_good_fixture(rule_id, relative):
    assert _run(rule_id, relative) == []


@pytest.mark.parametrize("rule_id", sorted(BAD_CASES))
def test_diagnostics_carry_location_and_hint(rule_id):
    relative, _ = BAD_CASES[rule_id]
    for diag in _run(rule_id, relative):
        assert diag.path.endswith(relative)
        assert diag.line >= 1 and diag.col >= 1
        assert diag.message
        assert diag.hint
        rendered = diag.render()
        assert f"{diag.line}:{diag.col}" in rendered
        assert rule_id in rendered


def test_every_registered_rule_has_fixture_coverage():
    from repro.devtools import all_rules

    covered = set(BAD_CASES) & set(GOOD_CASES)
    assert {rule.rule_id for rule in all_rules()} == covered
