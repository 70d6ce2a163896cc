"""``repro-lint`` console script.

Exit codes: 0 clean, 1 findings, 2 usage error (argparse).  The human
renderer is the default; ``--json`` emits the stable machine form used
by CI annotations and editor integrations.  Every run is the one
two-phase lint (per-file rules plus the whole-program passes);
``--select`` narrows the rule set of either phase.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.devtools.render import render_human, render_json
from repro.devtools.rulebase import ProjectRule, Rule, all_project_rules, all_rules
from repro.devtools.walker import lint_project

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "reprolint: project-specific static analysis for the TPIIN "
            "pipeline (per-file rules R001-R010 plus whole-program "
            "passes R012-R015)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable JSON report instead of the human one",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _select_rules(
    spec: str | None, parser: argparse.ArgumentParser
) -> tuple[tuple[Rule, ...], tuple[ProjectRule, ...]]:
    rules = all_rules()
    project_rules = all_project_rules()
    if spec is None:
        return rules, project_rules
    wanted = {part.strip().upper() for part in spec.split(",") if part.strip()}
    if not wanted:
        parser.error("--select given without any rule ids")
    known = {rule.rule_id for rule in rules} | {rule.rule_id for rule in project_rules}
    unknown = sorted(wanted - known)
    if unknown:
        parser.error(f"unknown rule id(s): {', '.join(unknown)}")
    return (
        tuple(rule for rule in rules if rule.rule_id in wanted),
        tuple(rule for rule in project_rules if rule.rule_id in wanted),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in (*all_rules(), *all_project_rules()):
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rules, project_rules = _select_rules(args.select, parser)
    try:
        report = lint_project(args.paths, rules, project_rules=project_rules)
    except OSError as exc:
        parser.error(str(exc))
    print(render_json(report) if args.json else render_human(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
