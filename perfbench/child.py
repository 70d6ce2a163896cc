"""Fresh-process batch paths timed by the batch workloads.

Run as ``python3 perfbench/child.py audit <inputs> <out-dir> <trace> <roundtrip>``
or ``python3 perfbench/child.py mine <inputs> <trace>``.  Prints one JSON
line: the monotonic time set-up finished, the timed operation's wall
time, per-stage times (each stage is one call into a layer's public
API) and the outputs the parent checks against the reference.

Repro modules are imported inside each path so set-up time covers only
the imports that path needs.  With ``trace`` on, each stage also records
its garbage-collector pause time (``gc.callbacks``) and the rise of
``ru_maxrss`` it caused, and ``detect`` records its own spans.
"""

from __future__ import annotations

import gc
import json
import pickle
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from stats import arc_digest, calibration_ms, median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The structural detectors the audit runs besides the IAT miner.
STRUCTURAL_DETECTORS = ("circular-trading", "missing-trader", "shared-household")

#: Calibration samples taken right after the timed operation (after its
#: peak RSS is read, so they do not raise it).
CALIBRATION_SAMPLES = 3

#: ``detect`` spans reported as mining sub-stages in the traced run.
MINING_SPANS = ("freeze", "plan", "mine", "scs_groups")


def maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Stages:
    """Wall time per stage; GC pauses and RSS rises when traced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.seconds: dict[str, float] = {}
        self.gc_seconds: dict[str, float] = {}
        self.rss_rise_kib: dict[str, int] = {}
        self._gc_total = 0.0
        self._gc_started = 0.0
        if traced:
            gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_total += time.perf_counter() - self._gc_started

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        rss, paused = (maxrss_kib(), self._gc_total) if self.traced else (0, 0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - started
            if self.traced:
                self.gc_seconds[name] = self._gc_total - paused
                self.rss_rise_kib[name] = maxrss_kib() - rss

    def report(self) -> dict[str, Any]:
        return {
            "stages": self.seconds,
            "gc": self.gc_seconds,
            "rss_rise_kib": self.rss_rise_kib,
        }


def calibrate() -> float:
    """Host speed sampled in this process right after the timed
    operation, so the parent can scale the pass to reference speed."""
    return median([calibration_ms() for _ in range(CALIBRATION_SAMPLES)])


def span_seconds(result: Any) -> dict[str, Any]:
    """The spans ``detect(trace=True)`` already emits, by name."""
    if result.trace is None:
        return {}
    spans: dict[str, Any] = {
        name: sum(s.duration for s in result.trace.find(name)) for name in MINING_SPANS
    }
    mine = result.trace.find("mine")
    spans["pooled"] = bool(mine and mine[0].attributes.get("pooled"))
    return spans


def build_from_edges(edges: dict[str, list[Any]]) -> Any:
    from repro.fusion.tpiin import TPIIN

    return TPIIN.build(
        persons=edges["persons"],
        companies=edges["companies"],
        influence=[tuple(arc) for arc in edges["influence"]],
        trading=[tuple(arc) for arc in edges["trading"]],
    )


def audit(inputs: Path, out_dir: Path, traced: bool, roundtrip: bool) -> dict[str, Any]:
    """load -> fuse -> detect -> detectors -> ITE -> reports."""
    from repro.detectors.runner import run_detectors
    from repro.io.registry_io import load_registry_csvs
    from repro.io.results_io import (
        read_detection_json,
        write_detection_json,
        write_sus_files,
    )
    from repro.ite.pipeline import run_two_phase
    from repro.mining.detector import detect

    ready = time.monotonic()
    stages = Stages(traced)
    started = time.perf_counter()
    with stages.stage("io.load"):
        bundle = load_registry_csvs(inputs / "registry")
        with (inputs / "book.pickle").open("rb") as handle:
            book = pickle.load(handle)  # written by inputs.py, never foreign
    with stages.stage("fusion.fuse"):
        tpiin = bundle.fuse().tpiin
    with stages.stage("mining.detect"):
        result = detect(tpiin, engine="parallel", trace=traced)
    with stages.stage("detectors.run"):
        findings = run_detectors(tpiin, list(STRUCTURAL_DETECTORS))
    with stages.stage("ite.judge"):
        outcome = run_two_phase(tpiin, book, msg_result=result)
    with stages.stage("io.report"):
        write_sus_files(result, out_dir)
        write_detection_json(result, out_dir / "detection.json")
    op_seconds = time.perf_counter() - started
    peak = maxrss_kib()

    payload: dict[str, Any] = {
        "ready": ready,
        "op_seconds": op_seconds,
        "calibration_ms": calibrate(),
        "maxrss_kib": peak,
        "spans": span_seconds(result),
        **stages.report(),
        "arcs": tpiin.graph.number_of_arcs(),
        "groups": len(result.groups),
        "suspicious_arcs": len(result.suspicious_trading_arcs),
        "suspicious_digest": arc_digest(result.suspicious_trading_arcs),
        "findings": {name: len(run.findings) for name, run in findings.runs.items()},
        "ite": {
            "examined": outcome.transactions_examined,
            "flagged": len(outcome.flagged),
            "tp": outcome.true_positives,
            "fp": outcome.false_positives,
            "fn": outcome.false_negatives,
        },
        "report_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }
    if roundtrip:
        payload["roundtrip_groups"] = len(
            read_detection_json(out_dir / "detection.json")["groups"]
        )
    return payload


def mine(inputs: Path, traced: bool) -> dict[str, Any]:
    """TPIIN.build from edge lists (set-up), then detect + one group pass."""
    from repro.mining.detector import detect

    stages = Stages(traced)
    with stages.stage("io.read"):
        edges = json.loads((inputs / "edges.json").read_text())
    with stages.stage("graph.build"):
        tpiin = build_from_edges(edges)
    del edges
    ready = time.monotonic()
    started = time.perf_counter()
    with stages.stage("mining.detect"):
        result = detect(tpiin, engine="parallel", trace=traced)
    with stages.stage("mining.materialize"):
        kinds: dict[str, int] = {}
        trading_arcs = set()
        for group in result.groups:
            kinds[group.kind.value] = kinds.get(group.kind.value, 0) + 1
            trading_arcs.add(group.trading_arc)
    op_seconds = time.perf_counter() - started
    return {
        "ready": ready,
        "op_seconds": op_seconds,
        "maxrss_kib": maxrss_kib(),
        "calibration_ms": calibrate(),
        "spans": span_seconds(result),
        **stages.report(),
        "arcs": tpiin.graph.number_of_arcs(),
        "groups": sum(kinds.values()),
        "kinds": dict(sorted(kinds.items())),
        "group_trading_arcs": len(trading_arcs),
        "suspicious_arcs": len(result.suspicious_trading_arcs),
        "suspicious_digest": arc_digest(result.suspicious_trading_arcs),
    }


def main(argv: list[str]) -> int:
    mode, inputs = argv[0], Path(argv[1])
    if mode == "audit":
        payload = audit(inputs, Path(argv[2]), argv[3] == "1", argv[4] == "1")
    elif mode == "mine":
        payload = mine(inputs, argv[2] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
