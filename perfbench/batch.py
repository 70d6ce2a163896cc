"""Batch workloads: each pass is a fresh ``child.py`` process.

``audit-batch`` runs the whole provincial audit (registry CSVs to
reports); ``mine-dense`` builds a dense TPIIN and mines it.  Passes run
back to back after one untimed warm-up pass until the window ends (at
least :data:`MIN_PASSES`), and
every pass's outputs are checked against the per-seed reference.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.graph.shm import SHM_NAME_PREFIX

from inputs import audit_inputs, mine_inputs
from stats import CALIBRATION_REF_MS, HostSpeed, Outcome, median

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

#: Stages inside the timed operation, per workload.
OP_STAGES = {
    "audit-batch": ("io.load", "fusion.fuse", "mining.detect", "detectors.run",
                    "ite.judge", "io.report"),
    "mine-dense": ("mining.detect", "mining.materialize"),
}
#: Per-layer RSS rises reported, with the stages each one sums.
RSS_RISES = {
    "io.load.rss_rise_mib": ("io.load", "io.read"),
    "fusion.fuse.rss_rise_mib": ("fusion.fuse", "graph.build"),
    "mining.rss_rise_mib": ("mining.detect", "mining.materialize"),
    "io.report.rss_rise_mib": ("io.report",),
}


def shm_leftovers() -> list[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX))


def _check_audit(payload: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    errors = []
    for key in ("arcs", "groups", "suspicious_arcs", "suspicious_digest", "findings", "ite"):
        if payload[key] != reference[key]:
            errors.append(f"{key}: {payload[key]!r} != reference {reference[key]!r}")
    if reference["suspicious_digest"] != reference["oracle_digest"]:
        errors.append("reference suspicious arcs differ from the oracle")
    if "roundtrip_groups" in payload and payload["roundtrip_groups"] != reference["groups"]:
        errors.append(f"detection.json round-trip: {payload['roundtrip_groups']} groups")
    return errors


def _check_mine(payload: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    errors = []
    for key in ("arcs", "groups", "kinds", "suspicious_arcs", "suspicious_digest"):
        if payload[key] != reference[key]:
            errors.append(f"{key}: {payload[key]!r} != reference {reference[key]!r}")
    if payload["group_trading_arcs"] != reference["suspicious_arcs"]:
        errors.append("groups' trading arcs differ from the suspicious-arc set")
    leftovers = shm_leftovers()
    if leftovers:
        errors.append(f"shared-memory segments left behind: {leftovers}")
    return errors


def _one_pass(
    argv: list[str], check: Callable[[dict[str, Any]], list[str]]
) -> tuple[dict[str, Any] | None, list[str]]:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return None, [f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    payload["setup_s"] = payload["ready"] - spawned
    return payload, check(payload)


def batch(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path,
          speed: HostSpeed) -> Outcome:
    audit = workload == "audit-batch"
    inputs = audit_inputs(seed) if audit else mine_inputs(seed)
    reference = json.loads((inputs / "reference.json").read_text())
    passes: list[dict[str, Any]] = []
    errors: list[str] = []
    attempted = failed = 0
    deadline = None
    while deadline is None or attempted < MIN_PASSES or time.monotonic() < deadline:
        warmup = deadline is None
        out_dir = run_dir / f"out-{attempted}"
        if audit:
            argv = ["audit", str(inputs), str(out_dir), str(int(traced)), str(int(warmup))]
            payload, problems = _one_pass(argv, lambda p: _check_audit(p, reference))
        else:
            argv = ["mine", str(inputs), str(int(traced))]
            payload, problems = _one_pass(argv, lambda p: _check_mine(p, reference))
        shutil.rmtree(out_dir, ignore_errors=True)
        if warmup:
            # The first pass warms the page cache and the host: checked, untimed.
            deadline = time.monotonic() + seconds
        if problems:
            attempted += 1
            failed += 1
            errors += problems
            if payload is None:
                break
        elif not warmup:
            attempted += 1
            passes.append(payload)
    if not passes:
        return Outcome({}, {}, attempted, failed, errors)

    # Each pass is scaled by the host speed its own process measured.
    speed.samples += [p["calibration_ms"] for p in passes]
    scales = [CALIBRATION_REF_MS / p["calibration_ms"] for p in passes]
    op_s = median([p["op_seconds"] * k for p, k in zip(passes, scales)])
    work = reference["arcs"] if audit else reference["groups"]
    stages = OP_STAGES[workload]
    return Outcome(
        e2e={
            "setup_s": median([p["setup_s"] * k for p, k in zip(passes, scales)]),
            "peak_rss_mib": median([p["maxrss_kib"] for p in passes]) / 1024.0,
            "op_p50_ms": op_s * 1e3,
            "work_per_s": work / op_s,
        },
        layers=_layers(passes, stages) if traced else {},
        attempted=attempted,
        failed=failed,
        errors=errors,
        details={
            "raw": {
                "setup_s": median([p["setup_s"] for p in passes]),
                "op_p50_ms": median([p["op_seconds"] for p in passes]) * 1e3,
            },
            "passes": len(passes),
            "work": work,
            "stage_sum_s": median([sum(p["stages"][s] for s in stages) for p in passes]),
            "stages_s": {s: median([p["stages"][s] for p in passes]) for s in stages},
        },
    )


def _share(passes: list[dict[str, Any]], part: Callable[[dict[str, Any]], float],
           whole: str = "op_seconds") -> float:
    """Median over passes of ``part`` as a percentage of ``whole``."""
    return median([100.0 * part(p) / p[whole] for p in passes])


def _layers(passes: list[dict[str, Any]], stages: tuple[str, ...]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name in OP_STAGES["audit-batch"] + ("mining.materialize",):
        layers[f"{name}.share_pct"] = (
            _share(passes, lambda p, n=name: p["stages"][n]) if name in stages else 0.0
        )
    layers["unaccounted.share_pct"] = _share(
        passes, lambda p: p["op_seconds"] - sum(p["stages"][s] for s in stages))
    layers["gc.share_pct"] = _share(passes, lambda p: sum(p["gc"][s] for s in stages))
    for span in ("freeze", "plan", "mine"):
        layers[f"mining.{span}.share_pct"] = _share(passes, lambda p, s=span: p["spans"][s])
    layers["graph.build.share_pct"] = _share(
        passes, lambda p: p["stages"].get("graph.build", 0.0), whole="setup_s")
    for metric, names in RSS_RISES.items():
        layers[metric] = median(
            [sum(p["rss_rise_kib"].get(n, 0) for n in names) for p in passes]) / 1024.0
    last = passes[-1]
    layers.update({
        "mining.groups": last["groups"],
        "mining.suspicious_arcs": last["suspicious_arcs"],
        "mining.pooled": int(last["spans"]["pooled"]),
        "detectors.findings": sum(last.get("findings", {}).values()),
        "ite.examined": last.get("ite", {}).get("examined", 0),
        "ite.flagged": last.get("ite", {}).get("flagged", 0),
        "io.report_bytes": last.get("report_bytes", 0),
    })
    return layers
