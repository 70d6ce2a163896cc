"""Per-stage CI gate over one perfbench run.

Reads perfbench's stdout on stdin and judges its last line, the
``{"correct", "attempted", "failed", "metrics"}`` summary.  Fails
unless the run checked correct, and fails when any named per-layer
metric exceeds its bound::

    python perfbench/run.py --workload mine-dense --seed 1 --seconds 5 --trace 1 \\
        | python benchmarks/gate_layers.py --max gc.share_pct=25

Exit codes: 0 pass, 1 a gate failed, 2 unusable input or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def parse_bound(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=BOUND, got {text!r}")
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bound of {name} is not a number") from exc


def summary_line(text: str) -> dict[str, Any]:
    """The run's last non-empty line, parsed as the summary object."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no perfbench output on stdin")
    summary = json.loads(lines[-1])
    if not isinstance(summary, dict) or not isinstance(summary.get("metrics"), dict):
        raise ValueError("the last line is not a perfbench summary")
    return summary


def failures(summary: dict[str, Any], bounds: list[tuple[str, float]]) -> list[str]:
    """Every gate the summary fails, as one line each."""
    found: list[str] = []
    if summary.get("correct") is not True:
        found.append(
            f"run not correct ({summary.get('failed')} of "
            f"{summary.get('attempted')} operations failed)"
        )
    metrics = summary["metrics"]
    for name, bound in bounds:
        entry = metrics.get(name)
        if not isinstance(entry, dict) or "value" not in entry:
            found.append(f"{name}: not in the run's metrics")
        elif entry["value"] > bound:
            found.append(f"{name} = {entry['value']:.4g} > {bound:g}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max",
        dest="bounds",
        action="append",
        type=parse_bound,
        default=[],
        metavar="NAME=BOUND",
        help="fail when per-layer metric NAME exceeds BOUND (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        summary = summary_line(sys.stdin.read())
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"gate_layers: {exc}", file=sys.stderr)
        return 2
    found = failures(summary, args.bounds)
    for line in found:
        print(f"FAIL: {line}", file=sys.stderr)
    if found:
        return 1
    for name, bound in args.bounds:
        value = summary["metrics"][name]["value"]
        print(f"ok: {name} = {value:.4g} <= {bound:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
