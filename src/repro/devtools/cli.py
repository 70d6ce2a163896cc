"""``repro-lint`` console script.

Exit codes: 0 clean, 1 findings, 2 usage error (argparse).  The human
renderer is the default; ``--format json`` emits the stable machine
form used by CI annotations and editor integrations, ``--format sarif``
the SARIF 2.1.0 log GitHub code scanning ingests.  By default both
analysis phases run (per-file rules plus the whole-program passes);
``--no-project`` restricts to the historical per-file pass.

A checked-in baseline (``--baseline``, default from
``[tool.reprolint]``) absorbs known findings so only *new* debt fails;
``--update-baseline`` rewrites it from the current findings.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

from repro.devtools.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.config import discover_config
from repro.devtools.render import render_human, render_json
from repro.devtools.rulebase import ProjectRule, Rule, all_project_rules, all_rules
from repro.devtools.sarif import render_sarif
from repro.devtools.walker import lint_paths, lint_project

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
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="per-file rules only; skip the whole-program passes",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file absorbing known findings "
        "(default: [tool.reprolint] baseline next to pyproject.toml)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
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
    fmt = "json" if args.json else args.format

    if args.list_rules:
        for rule in (*all_rules(), *all_project_rules()):
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rules, project_rules = _select_rules(args.select, parser)
    config = discover_config(Path(args.paths[0] if args.paths else "."))
    try:
        if args.no_project:
            report = lint_paths(args.paths, rules)
        else:
            report = lint_project(
                args.paths, rules, project_rules=project_rules, config=config
            )
    except OSError as exc:
        parser.error(str(exc))

    baseline_path = (
        Path(args.baseline) if args.baseline else config.default_baseline()
    )
    if args.update_baseline:
        write_baseline(report.diagnostics, baseline_path)
        print(
            f"reprolint: wrote baseline with {len(report.diagnostics)} "
            f"finding(s) to {baseline_path}"
        )
        return 0
    if not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            parser.error(str(exc))
        if baseline:
            kept, absorbed = apply_baseline(report.diagnostics, baseline)
            report = replace(report, diagnostics=kept, baselined=absorbed)

    if fmt == "sarif":
        print(render_sarif(report))
    elif fmt == "json":
        print(render_json(report))
    else:
        print(render_human(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
