"""Walker behavior: suppression comments, parse errors, reports, renderers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import lint_file, lint_project, render_human, render_json
from repro.devtools.walker import PARSE_ERROR_ID, iter_python_files, suppressed_rules

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Source bytes that no parser accepts: invalid UTF-8 on line 2, and a
#: NUL byte (``SyntaxError`` on 3.11+, ``ValueError`` on 3.10).
BAD_BYTES = {
    "not-utf8": b'"""Doc."""\nname = "caf\xe9"\n',
    "nul-byte": b'"""Doc."""\nx = 1\x00\n',
}


class TestSuppression:
    def test_disable_comment_silences_matching_rule(self):
        diagnostics = lint_file(FIXTURES / "misc" / "suppressed.py")
        assert [(d.rule_id, d.line) for d in diagnostics] == [("R007", 11)]

    def test_suppressed_count_reported(self):
        report = lint_project([FIXTURES / "misc" / "suppressed.py"], project_rules=())
        assert report.suppressed == 3
        assert len(report.diagnostics) == 1

    def test_suppression_table_parsing(self):
        table = suppressed_rules(
            "x = 1  # reprolint: disable=R001\n"
            "y = 2\n"
            "z = 3  # reprolint: disable=R002, R007\n"
            "w = 4  # reprolint: disable=all\n"
        )
        assert table == {
            1: frozenset({"R001"}),
            3: frozenset({"R002", "R007"}),
            4: frozenset({"ALL"}),
        }


class TestParseErrors:
    def test_unparseable_file_yields_r000(self):
        diagnostics = lint_file(FIXTURES / "misc" / "unparseable.py")
        assert len(diagnostics) == 1
        assert diagnostics[0].rule_id == PARSE_ERROR_ID
        assert "does not parse" in diagnostics[0].message

    def test_parse_error_marks_report_not_ok(self):
        report = lint_project([FIXTURES / "misc" / "unparseable.py"], project_rules=())
        assert not report.ok


@pytest.mark.parametrize("payload", sorted(BAD_BYTES))
class TestUndecodableFiles:
    """Bytes that cannot be read as Python are a finding, never a crash."""

    def test_linted_file_yields_r000(self, tmp_path, payload):
        bad = tmp_path / "bad.py"
        bad.write_bytes(BAD_BYTES[payload])
        report = lint_project([bad])
        assert [d.rule_id for d in report.diagnostics] == [PARSE_ERROR_ID]
        assert "does not parse" in report.diagnostics[0].message
        assert lint_file(bad) == list(report.diagnostics)

    def test_cli_reports_r000_without_a_traceback(self, tmp_path, payload):
        bad = tmp_path / "bad.py"
        bad.write_bytes(BAD_BYTES[payload])
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.cli", str(bad)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert f"{PARSE_ERROR_ID} file does not parse" in proc.stdout

    def test_reference_file_is_skipped(self, tmp_path, payload):
        # A clean subject tree next to an unreadable file under a
        # reference root (``tests/``) stays clean.
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "x"\n', encoding="utf-8")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "clean.py").write_text('"""Doc."""\n', encoding="utf-8")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "bad.py").write_bytes(BAD_BYTES[payload])
        report = lint_project([tmp_path / "src"])
        assert report.ok, render_human(report)
        assert report.files_checked == 1


def test_parser_value_error_is_r000_and_skipped_as_reference(tmp_path, monkeypatch):
    # Python 3.10's ``ast.parse`` rejects a NUL byte with ValueError, not
    # SyntaxError; stand that parser in on any interpreter.
    real_parse = ast.parse

    def parse(source, *args, **kwargs):
        if "\x00" in source:
            raise ValueError("source code string cannot contain null bytes")
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", parse)
    (tmp_path / "pyproject.toml").write_text('[project]\nname = "x"\n', encoding="utf-8")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "clean.py").write_text('"""Doc."""\n', encoding="utf-8")
    (tmp_path / "tests").mkdir()
    bad = tmp_path / "tests" / "bad.py"
    bad.write_bytes(BAD_BYTES["nul-byte"])
    assert lint_project([tmp_path / "src"]).ok
    report = lint_project([bad])
    assert [d.rule_id for d in report.diagnostics] == [PARSE_ERROR_ID]
    assert "null bytes" in report.diagnostics[0].message


class TestWalk:
    def test_directory_walk_is_recursive_and_counts_files(self):
        report = lint_project([FIXTURES / "R002"], project_rules=())
        assert report.files_checked == 3

    def test_duplicate_inputs_deduplicated(self):
        path = FIXTURES / "R007" / "bad.py"
        report = lint_project([path, path], project_rules=())
        assert report.files_checked == 1

    def test_iter_python_files_sorted(self):
        files = list(iter_python_files([FIXTURES / "R001"]))
        assert files == sorted(files)
        assert all(f.suffix == ".py" for f in files)

    def test_by_rule_summary(self):
        report = lint_project([FIXTURES / "R007" / "bad.py"], project_rules=())
        assert report.by_rule() == {"R007": 2}


class TestRenderers:
    def test_human_render_clean(self):
        report = lint_project([FIXTURES / "R007" / "good.py"], project_rules=())
        text = render_human(report)
        assert "1 file(s) clean" in text

    def test_human_render_findings_summary(self):
        report = lint_project([FIXTURES / "R007" / "bad.py"], project_rules=())
        text = render_human(report)
        assert "R007 x2" in text
        assert "bad.py:5:" in text

    def test_json_render_round_trips(self):
        report = lint_project([FIXTURES / "R007" / "bad.py"], project_rules=())
        payload = json.loads(render_json(report))
        assert payload["count"] == 2
        assert payload["by_rule"] == {"R007": 2}
        assert payload["files_checked"] == 1
        first = payload["diagnostics"][0]
        assert set(first) == {"path", "line", "col", "rule_id", "message", "hint"}
