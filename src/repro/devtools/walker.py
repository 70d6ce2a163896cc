"""File/package walker: collect sources, run rules, apply suppressions.

Suppression is per line and per rule: a trailing
``# reprolint: disable=R001`` (comma-separate several ids, or use
``all``) silences matching diagnostics anchored on that line — or
anywhere on the anchored statement's physical span, so the comment can
trail the closing paren of a multi-line call or sit on a decorator
line.  Files that fail to decode or parse yield a single ``R000``
parse-error diagnostic so a broken tree can never slip through as
"clean".

:func:`lint_project` is the one lint run: phase 1 parses the linted
files *plus* the configured reference roots into a
:class:`~repro.devtools.project.ProjectIndex`; phase 2 runs the
per-file rules on the linted files and the project rules (R012-R015)
over the index.  With no project rule chosen the index phase is
skipped.  :func:`lint_file` runs per-file rules on one file.
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
    text: str = ""
    tree: ast.Module | None = None


_SYNTAX_HINT = "fix the syntax error; unparseable files are never clean"
_BYTES_HINT = "save the file as UTF-8 text without NUL bytes"


def _parse_error(
    display_path: str, line: int, col: int, reason: str, hint: str = _SYNTAX_HINT
) -> _FileResult:
    diag = Diagnostic(
        path=display_path,
        line=line,
        col=col,
        rule_id=PARSE_ERROR_ID,
        message=f"file does not parse: {reason}",
        hint=hint,
    )
    return _FileResult((diag,), 0)


def _lint_source(path: Path, display_path: str, rules: Sequence[Rule]) -> _FileResult:
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
    except SyntaxError as exc:
        return _parse_error(display_path, exc.lineno or 1, exc.offset or 1, exc.msg)
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        return _parse_error(display_path, line, 1, f"not UTF-8 ({exc.reason})", _BYTES_HINT)
    except ValueError as exc:  # Python 3.10: a NUL byte in the source
        return _parse_error(display_path, 1, 1, str(exc), _BYTES_HINT)

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
    return _FileResult(tuple(kept), dropped, text, tree)


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Diagnostic]:
    """Lint one file and return its (suppression-filtered) diagnostics."""
    chosen = all_rules() if rules is None else tuple(rules)
    return list(_lint_source(Path(path), Path(path).as_posix(), chosen).diagnostics)


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
    configured ``reference_roots`` (so cross-module references from
    tests and benchmarks count) into a project index.  Phase 2 runs the
    per-file rules over the linted files and the project rules over the
    index; project diagnostics honour the same per-line suppression
    comments.  Reference-only files contribute references but never
    diagnostics, and a reference file that fails to decode or parse is
    skipped (its own lint run will report R000).  With
    ``project_rules=()`` only the per-file pass runs.
    """
    chosen = all_rules() if rules is None else tuple(rules)
    chosen_project = all_project_rules() if project_rules is None else tuple(project_rules)

    subject_files = list(iter_python_files(paths))
    diagnostics: list[Diagnostic] = []
    suppressed = 0
    indexed: list[tuple[str, str, ast.Module]] = []
    subject_displays: list[str] = []

    for path in subject_files:
        display = path.as_posix()
        subject_displays.append(display)
        result = _lint_source(path, display, chosen)
        diagnostics.extend(result.diagnostics)
        suppressed += result.suppressed
        if result.tree is not None:
            indexed.append((display, result.text, result.tree))

    if chosen_project:
        tables = {display: suppressed_rules(text) for display, text, _ in indexed}
        if config is None:
            anchor = subject_files[0] if subject_files else Path.cwd()
            config = discover_config(Path(anchor))
        seen_resolved = {path.resolve() for path in subject_files}
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
                except (OSError, SyntaxError, ValueError):  # ValueError: bad bytes
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
