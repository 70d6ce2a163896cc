"""Per-line suppression edge cases: decorated defs, multi-line spans.

A ``# reprolint: disable=`` comment silences a diagnostic anchored
anywhere on the same physical statement — the decorator lines of a
flagged def, or the closing paren of a multi-line call — but never
from inside a function *body*.
"""

import ast

import pytest

from repro.devtools.diagnostics import node_suppress_lines
from repro.devtools.walker import lint_project


def _lint(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_project([path], project_rules=())


class TestNodeSuppressLines:
    def test_decorated_def_includes_decorator_and_signature_lines(self):
        tree = ast.parse(
            "@deco_one\n"  # line 1
            "@deco_two(\n"  # line 2
            "    arg,\n"  # line 3
            ")\n"  # line 4
            "def f(\n"  # line 5
            "    x,\n"  # line 6
            "):\n"  # line 7
            "    return x\n"  # line 8 (body: excluded)
        )
        fn = tree.body[0]
        assert node_suppress_lines(fn) == (1, 2, 3, 4, 5, 6, 7)

    def test_multiline_expression_covers_its_whole_span(self):
        tree = ast.parse("value = call(\n    1,\n    2,\n)\n")
        assert node_suppress_lines(tree.body[0]) == (1, 2, 3, 4)

    def test_none_and_lineless_nodes_yield_nothing(self):
        assert node_suppress_lines(None) == ()
        assert node_suppress_lines(ast.Load()) == ()


class TestDecoratedDefSuppression:
    SOURCE = (
        "import functools\n"
        "\n"
        "__all__ = []\n"
        "\n"
        "@functools.cache{comment}\n"
        "def helper():\n"
        "    return 1\n"
    )

    def test_unsuppressed_decorated_def_is_flagged(self, tmp_path):
        report = _lint(tmp_path, self.SOURCE.format(comment=""))
        assert [d.rule_id for d in report.diagnostics] == ["R004"]
        assert report.diagnostics[0].line == 6  # anchored on the def

    def test_comment_on_decorator_line_silences_def_anchor(self, tmp_path):
        report = _lint(
            tmp_path, self.SOURCE.format(comment="  # reprolint: disable=R004")
        )
        assert report.diagnostics == ()
        assert report.suppressed == 1

    def test_comment_inside_the_body_does_not_silence(self, tmp_path):
        source = (
            "import functools\n"
            "\n"
            "__all__ = []\n"
            "\n"
            "@functools.cache\n"
            "def helper():\n"
            "    return 1  # reprolint: disable=R004\n"
        )
        report = _lint(tmp_path, source)
        assert [d.rule_id for d in report.diagnostics] == ["R004"]


class TestMultiLineStatementSuppression:
    SOURCE = (
        "def _emit(rows):\n"
        "    print(\n"
        "        rows,\n"
        "    ){comment}\n"
    )

    def test_unsuppressed_multiline_call_is_flagged(self, tmp_path):
        report = _lint(tmp_path, self.SOURCE.format(comment=""))
        assert [d.rule_id for d in report.diagnostics] == ["R007"]
        assert report.diagnostics[0].line == 2

    @pytest.mark.parametrize("comment", ["  # reprolint: disable=R007"])
    def test_comment_on_closing_paren_silences(self, tmp_path, comment):
        report = _lint(tmp_path, self.SOURCE.format(comment=comment))
        assert report.diagnostics == ()
        assert report.suppressed == 1

    def test_unrelated_rule_id_does_not_silence(self, tmp_path):
        report = _lint(
            tmp_path, self.SOURCE.format(comment="  # reprolint: disable=R001")
        )
        assert [d.rule_id for d in report.diagnostics] == ["R007"]
