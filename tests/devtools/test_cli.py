"""CLI smoke tests for ``repro-lint`` (via ``repro.devtools.cli.main``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


class TestBuildParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.paths == ["src"]
        assert not args.json and not args.list_rules
        assert args.select is None

    @pytest.mark.parametrize(
        "flags",
        [
            ["--format", "sarif"],
            ["--format", "json"],
            ["--baseline", "x"],
            ["--no-baseline"],
            ["--update-baseline"],
            ["--no-project"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*flags, str(FIXTURES / "R007" / "good.py")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMain:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(FIXTURES / "R007" / "good.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, capsys):
        assert main([str(FIXTURES / "R007" / "bad.py")]) == 1
        out = capsys.readouterr().out
        assert "R007" in out

    def test_json_output(self, capsys):
        assert main(["--json", str(FIXTURES / "R007" / "bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R009"):
            assert rule_id in out

    def test_select_restricts_rules(self, capsys):
        # R001/bad.py also has R004-able content, but only R007 is asked for
        assert main(["--select", "R007", str(FIXTURES / "R001" / "bad.py")]) == 0
        capsys.readouterr()

    def test_select_unknown_rule_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "R999", str(FIXTURES)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_select_empty_is_usage_error(self, capsys):
        # '--select ""' must not silently lint with zero rules and pass
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "", str(FIXTURES / "R007" / "bad.py")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(FIXTURES / "does_not_exist.py")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "does_not_exist.py" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "repro-lint" in capsys.readouterr().out


class TestSubprocess:
    def test_module_invocation_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.cli", "--help"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_env_with_src(),
        )
        assert proc.returncode == 0
        assert "repro-lint" in proc.stdout

    def test_module_invocation_flags_fixture(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.cli",
                str(FIXTURES / "R006" / "bad.py"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_env_with_src(),
        )
        assert proc.returncode == 1
        assert "R006" in proc.stdout
