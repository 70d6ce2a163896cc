"""SARIF 2.1.0 renderer: structure, rule catalogue, determinism."""

import json

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.sarif import render_sarif
from repro.devtools.walker import LintReport


def _diag(rule_id="R007", line=3, hint=""):
    return Diagnostic(
        path="src/repro/sample.py",
        line=line,
        col=5,
        rule_id=rule_id,
        message="something happened",
        hint=hint,
    )


def _log(report):
    return json.loads(render_sarif(report))


class TestStructure:
    def test_top_level_shape(self):
        log = _log(LintReport(diagnostics=(), files_checked=0))
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert run["columnKind"] == "unicodeCodePoints"
        assert run["results"] == []

    def test_rule_catalogue_covers_every_rule(self):
        log = _log(LintReport(diagnostics=(), files_checked=0))
        ids = [entry["id"] for entry in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        for rule_id in ("R000", "R001", "R010", "R012", "R013", "R014", "R015"):
            assert rule_id in ids
        for entry in log["runs"][0]["tool"]["driver"]["rules"]:
            assert entry["shortDescription"]["text"]
            assert entry["defaultConfiguration"]["level"] == "error"

    def test_result_location_and_rule_index(self):
        report = LintReport(diagnostics=(_diag(),), files_checked=1)
        log = _log(report)
        run = log["runs"][0]
        (result,) = run["results"]
        assert result["ruleId"] == "R007"
        assert run["tool"]["driver"]["rules"][result["ruleIndex"]]["id"] == "R007"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/sample.py"
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"] == {"startLine": 3, "startColumn": 5}

    def test_hint_is_folded_into_the_message(self):
        report = LintReport(diagnostics=(_diag(hint="do it right"),), files_checked=1)
        (result,) = _log(report)["runs"][0]["results"]
        assert "(fix: do it right)" in result["message"]["text"]


class TestDeterminism:
    def test_same_report_renders_identically(self):
        report = LintReport(
            diagnostics=(_diag(), _diag(rule_id="R014", line=9)), files_checked=2
        )
        assert render_sarif(report) == render_sarif(report)
