"""One command for every benchmark workload of the TPIIN pipeline.

Usage::

    python3 perfbench/run.py --workload audit-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test          # the helpers' own checks
    python3 perfbench/run.py --check-scale-10k    # seed 31 vs the committed scale-10k counts

Run from the repository root.  Inputs are generated from ``--seed`` into
``.perfbench-cache/`` (reused across runs), the workload is measured for
``--seconds``, its outputs are checked against faithful-engine
references, and the last stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the workload twice for half the window each (plain,
then traced) and reports the per-layer metrics, including the tracing
overhead on every end-to-end metric.  The line before it records host
facts and per-run details.  The exit status is non-zero when any check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

from stats import HostSpeed, Outcome, median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("audit-batch", "mine-dense", "serve-ingest", "serve-query")
TIME_UNITS = {"s", "ms"}
#: On audit-batch, traced stage sums must land this close to the audit time.
RECONCILE_TOLERANCE = 0.10


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts(directory: Path) -> dict[str, Any]:
    import numpy

    from repro.cli import build_parser

    memory_kib = next(
        int(line.split()[1])
        for line in Path("/proc/meminfo").read_text().splitlines()
        if line.startswith("MemTotal:")
    )
    probe = directory / "fsync-probe"
    latencies = []
    with probe.open("wb") as handle:
        for _ in range(20):
            handle.write(b"\0" * 4096)
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            latencies.append((time.perf_counter() - started) * 1e3)
    probe.unlink()
    serve = build_parser().parse_args(["serve", "arcs.csv", "nodes.csv"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mib": memory_kib // 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync_ms_p50": statistics.median(latencies),
        "daemon_flush_policy": {
            "fsync": not serve.no_fsync,
            "snapshot_every": serve.snapshot_every,
            "shards": serve.shards,
            "group_commit_max": serve.group_commit_max,
            "queue_limit": serve.queue_limit,
        },
    }


def live_children() -> list[int]:
    """Pids of processes this one started that are still running."""
    me = str(os.getpid())
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


def runner(workload: str) -> Callable[..., Any]:
    if workload in ("audit-batch", "mine-dense"):
        from batch import batch

        return lambda *args: batch(workload, *args)
    from serve import serve_ingest, serve_query

    return serve_ingest if workload == "serve-ingest" else serve_query


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path) -> tuple[dict[str, float], int, int, list[str], dict[str, Any]]:
    run = runner(workload)

    def window(name: str, traced: bool, length: float) -> Outcome:
        (run_dir / name).mkdir()
        speed = HostSpeed()
        out = run(seed, length, traced, run_dir / name, speed)
        out.details["calibration_ms"] = speed.samples
        if speed.samples:
            out.layers["host.calibration_ms"] = median(speed.samples)
        return out

    if not trace:
        plain = window("plain", False, seconds)
        return plain.e2e, plain.attempted, plain.failed, plain.errors, plain.details
    plain = window("plain", False, seconds / 2)
    traced = window("traced", True, seconds / 2)
    errors = plain.errors + traced.errors
    metrics = dict(traced.layers)
    for name, value in traced.e2e.items():
        metrics[f"overhead.{name}"] = value - plain.e2e[name]
    if workload == "audit-batch" and traced.e2e:
        # Stages must account for the traced run's own audit time; the
        # plain-vs-traced difference is reported as overhead instead.
        stage_sum = traced.details["stage_sum_s"]
        audit_s = traced.details["raw"]["op_p50_ms"] / 1e3
        if abs(stage_sum / audit_s - 1.0) > RECONCILE_TOLERANCE:
            errors.append(f"stage sum {stage_sum:.3f}s vs audit {audit_s:.3f}s: "
                          f"beyond {RECONCILE_TOLERANCE:.0%}")
    details = {"plain": plain.details, "traced": traced.details}
    return (metrics, plain.attempted + traced.attempted,
            plain.failed + traced.failed, errors, details)


def emit(spec: dict[str, Any], measured: dict[str, float], trace: bool) -> dict[str, Any]:
    """Exactly the listed metrics, with their units; unlisted ones are a bug.

    A per-layer metric of a layer the workload never calls reads 0 — a
    count, ratio or share, never a time (a time is always measured).
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    extra = set(measured) - {m["name"] for m in listed}
    if extra:
        raise RuntimeError(f"emitted metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name not in measured and (unit in TIME_UNITS or not trace):
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-scale-10k", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        from selftest import main as selftest

        return selftest()
    if args.check_scale_10k:
        from selftest import check_scale_10k

        return check_scale_10k()
    if args.workload is None:
        parser.error("--workload is required")

    from inputs import CACHE

    spec = load_spec()
    run_dir = CACHE / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        host = host_facts(run_dir)
        measured, attempted, failed, errors, details = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run_dir.exists():
        errors.append(f"run directory {run_dir} left behind")
    leftover = live_children()
    if leftover:
        errors.append(f"processes left running: {leftover}")
    metrics = emit(spec, measured, bool(args.trace))
    correct = not errors and failed == 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "errors": errors,
        "measured": sorted(measured), "details": details,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
