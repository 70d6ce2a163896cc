"""Human and JSON renderers for lint reports."""

from __future__ import annotations

import json

from repro.devtools.walker import LintReport

__all__ = ["render_human", "render_json"]


def render_human(report: LintReport) -> str:
    """One diagnostic per line plus a summary footer."""
    lines = [diag.render() for diag in report.diagnostics]
    if report.ok:
        lines.append(
            f"reprolint: {report.files_checked} file(s) clean"
            + (f" ({report.suppressed} suppressed)" if report.suppressed else "")
        )
    else:
        by_rule = ", ".join(
            f"{rule_id} x{count}" for rule_id, count in report.by_rule().items()
        )
        lines.append(
            f"reprolint: {len(report.diagnostics)} finding(s) in "
            f"{report.files_checked} file(s): {by_rule}"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable machine-readable form (sorted keys, 2-space indent)."""
    payload = {
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "count": len(report.diagnostics),
        "by_rule": report.by_rule(),
        "diagnostics": [diag.to_dict() for diag in report.diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
