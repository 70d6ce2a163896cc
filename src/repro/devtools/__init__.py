"""Project-specific static analysis for the TPIIN pipeline.

``repro.devtools`` ships **reprolint**, an AST-based linter in two
phases.  The per-file rules machine-check the paper invariants and
hot-path disciplines that otherwise live only in docstrings:

* trading arcs are company->company and colors are enums, never raw
  strings (R008);
* deep TPIINs must never blow the interpreter stack, so traversal in
  :mod:`repro.graph`, :mod:`repro.fusion` and :mod:`repro.mining` is
  iterative (R002);
* datasets are reproducible from one integer, so every random stream
  derives from :mod:`repro.datagen.rng` (R001);
* the hot-path dataclasses stay allocation-lean via ``slots=True``
  (R003);

plus general hygiene gates (R004-R007, R009-R010).  The whole-program
phase builds a project index (import graph + symbol table) and runs
the cross-module passes: declared-architecture layering (R012), dead
exports (R013), service lock discipline (R014) and hot-loop allocation
lint (R015).  See ``docs/DEVTOOLS.md`` for the full catalogue.

Run it as ``repro-lint src`` (console script) or programmatically::

    from repro.devtools import lint_project

    report = lint_project(["src"])
    for diag in report.diagnostics:
        print(diag.render())
"""

from repro.devtools.config import LintConfig, discover_config
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.project import ProjectIndex, build_index, module_name_for
from repro.devtools.render import render_human, render_json
from repro.devtools.rulebase import (
    FileContext,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    get_rule,
)
from repro.devtools.walker import LintReport, lint_file, lint_project

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintConfig",
    "LintReport",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "build_index",
    "discover_config",
    "get_rule",
    "lint_file",
    "lint_project",
    "module_name_for",
    "render_human",
    "render_json",
]
