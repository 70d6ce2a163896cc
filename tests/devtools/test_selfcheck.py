"""The repo gates itself: reprolint (and, when installed, mypy/ruff)
must be clean over ``src/`` so every future PR keeps the invariants."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import lint_project, render_human

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _installed(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


class TestReprolintGate:
    def test_src_tree_is_clean(self):
        report = lint_project([SRC], project_rules=())
        assert report.ok, "\n" + render_human(report)

    def test_all_library_files_were_seen(self):
        report = lint_project([SRC], project_rules=())
        assert report.files_checked >= 80

    def test_whole_program_pass_is_clean(self):
        # The CI invocation: both phases over every first-party tree.
        report = lint_project(
            [SRC, REPO_ROOT / "tests", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
        )
        assert report.ok, "\n" + render_human(report)


@pytest.mark.skipif(not _installed("mypy"), reason="mypy not installed")
class TestMypyGate:
    def test_strict_src_is_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not _installed("ruff"), reason="ruff not installed")
class TestRuffGate:
    def test_ruff_check_is_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "src", "tests"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
