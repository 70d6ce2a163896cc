"""Fixture-backed detection tests for the whole-program rules R012-R015.

Each fixture tree under ``fixtures/R01x/`` is a deliberately-planted
violation set; the tests pin the exact findings (and the good twins'
silence), and a CLI-level test proves a planted violation fails the
lint run end to end.
"""

import json
from pathlib import Path

import repro.service
from repro.devtools import lint_project
from repro.devtools.cli import main
from repro.devtools.config import LintConfig
from repro.devtools.project_rules import (
    DeadExportRule,
    HotPathAllocationRule,
    LayeringRule,
    LockDisciplineRule,
)
from repro.service.sharding import ShardedDetectionService

FIXTURES = Path(__file__).parent / "fixtures"


def _run(rule, fixture_dir, **config_kwargs):
    """Lint one fixture tree with exactly one project rule."""
    root = FIXTURES / fixture_dir
    config = LintConfig(root=root, reference_roots=(), **config_kwargs)
    report = lint_project([root], rules=(), project_rules=(rule,), config=config)
    return report.diagnostics


def _findings(diagnostics):
    return [(Path(d.path).name, d.line, d.rule_id) for d in diagnostics]


class TestLayering:
    def test_upward_import_and_unassigned_packages_flagged(self):
        diags = _run(LayeringRule(), "R012")
        by_file = {}
        for diag in diags:
            by_file.setdefault(Path(diag.path).name, []).append(diag)
        assert set(by_file) == {"bad.py", "orphan.py"}

        bad = sorted(by_file["bad.py"], key=lambda d: d.line)
        assert [d.line for d in bad] == [3, 4]
        assert "layer violation" in bad[0].message
        assert "'graph'" in bad[0].message and "'service'" in bad[0].message
        assert "not assigned to a layer" in bad[1].message

        (orphan,) = by_file["orphan.py"]
        assert "'widgets' is not assigned" in orphan.message

    def test_function_body_imports_are_not_judged(self):
        diags = _run(LayeringRule(), "R012")
        # bad.py's nested ``from repro.service.locks import ...`` sits in
        # a function body (line 10): R010's domain, never R012's.
        assert all(d.line != 10 for d in diags)

    def test_downward_import_is_clean(self):
        diags = _run(LayeringRule(), "R012")
        assert all(Path(d.path).name != "good.py" for d in diags)


class TestDeadExports:
    def test_only_the_dead_surface_is_flagged(self):
        diags = _run(DeadExportRule(), "R013", entry_points=())
        flagged = {(Path(d.path).name, d.message.split("'")[1]) for d in diags}
        assert flagged == {
            ("core.py", "dead_fn"),  # nothing references it at all
            ("__init__.py", "stale_fn"),  # dead through both import paths
            ("tested_only.py", "repro.pkg.tested_only"),  # only a test reads it
        }

    def test_module_read_only_by_tests_is_flagged(self):
        diags = _run(DeadExportRule(), "R013", entry_points=())
        modules = {
            d.message.split("'")[1] for d in diags if d.message.startswith("module ")
        }
        # tested_only's export is read (by tests/reader.py), so only the
        # module-level condition catches it; core is read by user.py and
        # user by the __main__ entry module, through the package path.
        assert modules == {"repro.pkg.tested_only"}

    def test_live_reexport_and_signature_liveness_survive(self):
        diags = _run(DeadExportRule(), "R013", entry_points=())
        names = {d.message.split("'")[1] for d in diags}
        # used_fn: imported by user.py; ReportType: a return annotation
        # of core's own interface; the __init__ re-export of used_fn
        # inherits the home symbol's liveness.
        assert names.isdisjoint({"used_fn", "ReportType"})


class TestLockDiscipline:
    def test_every_planted_violation_fires(self):
        diags = _run(
            LockDisciplineRule(),
            "R014",
            blocking_calls=("self._wal.append",),
        )
        assert all(Path(d.path).name == "bad.py" for d in diags)
        messages = sorted(d.message for d in diags)
        assert len(diags) == 5
        assert any("read of lock-guarded 'self._table'" in m for m in messages)
        assert any("mutation of lock-guarded 'self._table'" in m for m in messages)
        assert any("nested acquisition" in m for m in messages)
        assert any("blocking I/O 'self._wal.append'" in m for m in messages)
        assert any("'_compact_locked' (assumes the write lock)" in m for m in messages)

    def test_disciplined_twin_is_clean(self):
        diags = _run(
            LockDisciplineRule(),
            "R014",
            blocking_calls=("self._wal.append",),
        )
        assert all(Path(d.path).name != "good.py" for d in diags)

    def test_classes_without_optin_are_ignored(self, tmp_path):
        service = tmp_path / "repro" / "service"
        service.mkdir(parents=True)
        mod = service / "plain.py"
        mod.write_text(
            "class Plain:\n"
            "    def touch(self):\n"
            "        self._table = {}\n",
            encoding="utf-8",
        )
        config = LintConfig(root=tmp_path, reference_roots=())
        report = lint_project(
            [mod], rules=(), project_rules=(LockDisciplineRule(),), config=config
        )
        assert report.diagnostics == ()


class TestHotPathAllocation:
    HOT = ("repro.hot::kernel",)

    def test_allocations_and_repeated_lookup_flagged(self):
        diags = _run(HotPathAllocationRule(), "R015", hot_functions=self.HOT)
        messages = sorted(d.message for d in diags)
        assert len(diags) == 3
        assert any("ListComp" in m for m in messages)
        assert any("'list()'" in m for m in messages)
        assert any("'table.scale' is looked up 2 times" in m for m in messages)

    def test_unmarked_function_is_never_flagged(self):
        diags = _run(HotPathAllocationRule(), "R015", hot_functions=self.HOT)
        # ``cold`` has the same shapes but is not in the hot set.
        kernel_end = 11
        assert all(d.line <= kernel_end for d in diags)

    def test_stale_entry_in_a_linted_module_is_reported(self):
        hot = self.HOT + ("repro.hot::deleted_kernel",)
        diags = _run(HotPathAllocationRule(), "R015", hot_functions=hot)
        stale = [d for d in diags if "deleted_kernel" in d.message]
        assert _findings(stale) == [("hot.py", 1, "R015")]
        assert "repro.hot::deleted_kernel" in stale[0].message
        assert "_DEFAULT_HOT_FUNCTIONS" in stale[0].hint
        # The live entry is still checked alongside the stale one.
        assert len(diags) == 4

    def test_entry_for_a_module_outside_the_run_is_silent(self):
        # Like a lint of ``tests/`` alone: the listed module is not linted.
        hot = ("repro.elsewhere::kernel",)
        diags = _run(HotPathAllocationRule(), "R015", hot_functions=hot)
        assert diags == ()


class TestEndToEnd:
    def test_planted_violation_fails_the_cli(self, capsys):
        bad = FIXTURES / "R014" / "repro" / "service" / "bad.py"
        code = main(["--select", "R014", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "R014" in out

    def test_suppression_comment_silences_project_rule(self, tmp_path):
        service = tmp_path / "repro" / "service"
        service.mkdir(parents=True)
        mod = service / "sup.py"
        mod.write_text(
            "class Sup:\n"
            '    _lock_guarded = frozenset({"_table"})\n'
            "\n"
            "    def peek(self):\n"
            "        return self._table  # reprolint: disable=R014\n",
            encoding="utf-8",
        )
        config = LintConfig(root=tmp_path, reference_roots=())
        report = lint_project(
            [mod], rules=(), project_rules=(LockDisciplineRule(),), config=config
        )
        assert report.diagnostics == ()
        assert report.suppressed == 1


class TestServiceTree:
    def test_daemon_declares_its_guarded_state(self):
        # R014 skips a class without the declaration, so pin it here.
        assert ShardedDetectionService._lock_guarded == frozenset(
            {"_detector", "_wal", "_ops_since_snapshot"}
        )

    def test_service_package_is_lock_clean(self, capsys):
        service_dir = Path(repro.service.__file__).parent
        code = main(["--select", "R014", "--json", str(service_dir)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["diagnostics"] == []
        # The group-commit WAL append and sync, and the compaction's
        # snapshot write and WAL truncation, block under the write lock
        # on purpose; nothing else may be suppressed.
        assert report["suppressed"] == 4
