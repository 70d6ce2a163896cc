"""File/package walker: collect sources, run rules, apply suppressions.

Suppression is per line and per rule: a trailing
``# reprolint: disable=R001`` (comma-separate several ids, or use
``all``) silences matching diagnostics anchored on that line — or
anywhere on the anchored statement's physical span, so the comment can
trail the closing paren of a multi-line call or sit on a decorator
line.  Files that fail to parse yield a single ``R000`` parse-error
diagnostic so a broken tree can never slip through as "clean".

Two entry points:

* :func:`lint_paths` — the historical per-file pass (rules R001-R010).
* :func:`lint_project` — the two-phase whole-program analysis: phase 1
  parses the linted files *plus* the configured reference roots into a
  :class:`~repro.devtools.project.ProjectIndex`; phase 2 runs the
  per-file rules on the linted files and the project rules (R012-R015)
  over the index.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.devtools.config import LintConfig, discover_config
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.project import build_index
from repro.devtools.rulebase import (
    FileContext,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
)

__all__ = [
    "PARSE_ERROR_ID",
    "LintReport",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "suppressed_rules",
]

PARSE_ERROR_ID = "R000"

_SUPPRESSION = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9,\s]+)")


@dataclass(frozen=True, slots=True)
class LintReport:
    """All diagnostics of one run plus the file census."""

    diagnostics: tuple[Diagnostic, ...]
    files_checked: int
    suppressed: int = 0
    #: Findings absorbed by the checked-in baseline (still debt, not new).
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted, de-duplicated file list.

    Directory walks skip ``fixtures`` subtrees (deliberately-bad rule
    fixtures must not fail a tree-wide lint); pass a path *inside* a
    fixtures directory explicitly to lint it anyway.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "fixtures" not in candidate.relative_to(path).parts[:-1]
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def suppressed_rules(text: str) -> dict[int, frozenset[str]]:
    """Line -> rule ids silenced on that line (``all`` matches any rule)."""
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is not None:
            ids = frozenset(
                part.strip().upper() for part in match.group(1).split(",") if part.strip()
            )
            if ids:
                table[lineno] = ids
    return table


def _is_silenced(diag: Diagnostic, table: dict[int, frozenset[str]]) -> bool:
    """A disable comment anywhere on the diagnostic's span silences it."""
    for lineno in (diag.line, *diag.suppress_lines):
        silenced = table.get(lineno)
        if silenced is not None and (diag.rule_id in silenced or "ALL" in silenced):
            return True
    return False


@dataclass(frozen=True, slots=True)
class _FileResult:
    diagnostics: tuple[Diagnostic, ...]
    suppressed: int
    tree: ast.Module | None = None


def _lint_source(
    display_path: str, text: str, rules: Sequence[Rule]
) -> _FileResult:
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        diag = Diagnostic(
            path=display_path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) or 1,
            rule_id=PARSE_ERROR_ID,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; unparseable files are never clean",
        )
        return _FileResult((diag,), 0)

    ctx = FileContext(display_path=display_path, text=text, tree=tree)
    table = suppressed_rules(text)
    kept: list[Diagnostic] = []
    dropped = 0
    for rule in rules:
        for diag in rule.check(ctx):
            if _is_silenced(diag, table):
                dropped += 1
            else:
                kept.append(diag)
    kept.sort(key=Diagnostic.sort_key)
    return _FileResult(tuple(kept), dropped, tree)


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Diagnostic]:
    """Lint one file and return its (suppression-filtered) diagnostics."""
    chosen = all_rules() if rules is None else tuple(rules)
    text = Path(path).read_text(encoding="utf-8")
    display = Path(path).as_posix()
    return list(_lint_source(display, text, chosen).diagnostics)


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> LintReport:
    """Lint files and directory trees; directories are walked recursively."""
    chosen = all_rules() if rules is None else tuple(rules)
    diagnostics: list[Diagnostic] = []
    files = 0
    suppressed = 0
    for path in iter_python_files(paths):
        files += 1
        text = path.read_text(encoding="utf-8")
        result = _lint_source(path.as_posix(), text, chosen)
        diagnostics.extend(result.diagnostics)
        suppressed += result.suppressed
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(
        diagnostics=tuple(diagnostics), files_checked=files, suppressed=suppressed
    )


def _display_for(path: Path) -> str:
    """Stable display path: cwd-relative when possible, as given otherwise."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_project(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Two-phase whole-program lint over ``paths``.

    Phase 1 parses every linted file plus every file under the
    configured ``reference-roots`` (so cross-module references from
    tests and benchmarks count) into a project index.  Phase 2 runs the
    per-file rules over the linted files and the project rules over the
    index; project diagnostics honour the same per-line suppression
    comments.  Reference-only files contribute references but never
    diagnostics, and a reference file that fails to parse is skipped
    (its own lint run will report R000).
    """
    chosen = all_rules() if rules is None else tuple(rules)
    chosen_project = all_project_rules() if project_rules is None else tuple(project_rules)

    subject_files = list(iter_python_files(paths))
    if config is None:
        anchor = subject_files[0] if subject_files else Path.cwd()
        config = discover_config(Path(anchor))

    diagnostics: list[Diagnostic] = []
    suppressed = 0
    indexed: list[tuple[str, str, ast.Module]] = []
    tables: dict[str, dict[int, frozenset[str]]] = {}
    subject_displays: list[str] = []
    seen_resolved: set[Path] = set()

    for path in subject_files:
        seen_resolved.add(path.resolve())
        display = path.as_posix()
        subject_displays.append(display)
        text = path.read_text(encoding="utf-8")
        result = _lint_source(display, text, chosen)
        diagnostics.extend(result.diagnostics)
        suppressed += result.suppressed
        if result.tree is not None:
            indexed.append((display, text, result.tree))
            tables[display] = suppressed_rules(text)

    for root_name in config.reference_roots:
        root = config.root / root_name
        if not root.is_dir():
            continue
        for path in iter_python_files([root]):
            resolved = path.resolve()
            if resolved in seen_resolved:
                continue
            seen_resolved.add(resolved)
            try:
                text = path.read_text(encoding="utf-8")
                tree = ast.parse(text)
            except (OSError, SyntaxError):
                continue
            indexed.append((_display_for(path), text, tree))

    index = build_index(indexed, subject_displays)
    for rule in chosen_project:
        for diag in rule.check_project(index, config):
            table = tables.get(diag.path)
            if table is not None and _is_silenced(diag, table):
                suppressed += 1
            else:
                diagnostics.append(diag)

    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(
        diagnostics=tuple(diagnostics),
        files_checked=len(subject_files),
        suppressed=suppressed,
    )
