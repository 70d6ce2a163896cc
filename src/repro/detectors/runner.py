"""The detector portfolio driver: one freeze, many detectors.

:func:`run_detectors` resolves a selection against the detector
table, builds **one** shared :class:`~repro.detectors.base.DetectionContext`
(so every detector reads the same frozen trading view — expensive
supporting indexes are computed once, not per detector), executes each
detector under its own trace span, meters every run through
:mod:`repro.obs`, and merges the outcomes into a per-detector-keyed
:class:`~repro.detectors.base.FindingsReport`.  :func:`run_in_context`
is the same run over a context the caller built (the serving daemon's
live state), and :func:`advance_run` carries a finished run past
trading-arc changes when its detector can (``circular-trading``).
Every run, scanned or advanced, is metered in one place.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Literal, Mapping

from repro.detectors.base import (
    DetectionContext,
    DetectorOutcome,
    DetectorRun,
    FindingsReport,
)
from repro.detectors.circular import RingState, advance, ring_findings
from repro.detectors.registry import create_detector, resolve_detectors
from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.graph.gcpause import gc_paused
from repro.obs.registry import get_registry
from repro.obs.tracing import TraceSpec, resolve_tracer

__all__ = ["advance_run", "run_detectors", "run_in_context"]

_RUN_BUCKETS_MS = (1.0, 5.0, 25.0, 100.0, 250.0, 1000.0, 5000.0, 30000.0)


@gc_paused()
def run_detectors(
    tpiin: TPIIN,
    detectors: "str | Iterable[str]" = "all",
    *,
    configs: Mapping[str, Mapping[str, object]] | None = None,
    trace: TraceSpec = False,
) -> FindingsReport:
    """Run a selection of detectors over one shared graph.

    Parameters
    ----------
    tpiin:
        The fused graph every detector reads (never mutated).
    detectors:
        A detector name, an iterable of names, or ``"all"``.
    configs:
        Optional per-detector config overrides, keyed by detector
        name: ``{"circular-trading": {"min_balance": 0.8}}`` or
        ``{"iat-groups": {"engine": "parallel"}}``.  A config for an
        unselected detector, or a field its config does not declare,
        raises :class:`MiningError`.
    trace:
        ``True`` collects a span tree onto ``FindingsReport.trace``;
        a caller-owned tracer nests the run under its spans.

    The batch run builds its indexes and findings with the cyclic
    collector paused (:func:`~repro.graph.gcpause.gc_paused`);
    :func:`run_in_context`, the serving daemon's live reads, does not.
    """
    return run_in_context(
        DetectionContext(tpiin=tpiin), detectors, configs=configs, trace=trace
    )


def run_in_context(
    context: DetectionContext,
    detectors: "str | Iterable[str]" = "all",
    *,
    configs: Mapping[str, Mapping[str, object]] | None = None,
    trace: TraceSpec = False,
) -> FindingsReport:
    """:func:`run_detectors` over a caller-built ``context``.

    The run uses a copy of ``context`` carrying the tracer ``trace``
    resolves to; the parameters are :func:`run_detectors`'s.
    """
    names = resolve_detectors(detectors)
    configs = configs or {}
    for name in configs:
        if name not in names:
            raise MiningError(
                f"config supplied for unselected detector {name!r} "
                f"(selected: {', '.join(names)})"
            )
    tracer = resolve_tracer(trace)
    runs: dict[str, DetectorRun] = {}
    with tracer.span("run_detectors") as root:
        context = dataclasses.replace(context, tracer=tracer)
        for name in names:
            detector = create_detector(name, configs.get(name))
            started = time.perf_counter()
            with tracer.span(f"detector:{name}") as span:
                outcome = detector.run(context)
                if tracer.enabled:
                    span.set(findings=len(outcome.findings), version=detector.version)
            elapsed = time.perf_counter() - started
            runs[name] = _record_run(name, detector.version, outcome, elapsed, mode="scan")
        if tracer.enabled:
            root.set(
                detectors=len(runs),
                findings=sum(len(run.findings) for run in runs.values()),
            )
        trace_record = root.record
    return FindingsReport(runs=runs, trace=trace_record)


def advance_run(
    run: DetectorRun, changes: Iterable[tuple[str, Node, Node]]
) -> DetectorRun | None:
    """``run`` carried past trading-arc ``changes``, or ``None`` when only
    a rerun can tell what changed.

    ``changes`` are ``(op, seller, buyer)`` changes to the trading view
    the run read, in fused ids (see :func:`repro.detectors.circular.advance`).
    Only a ``circular-trading`` run carries a state to advance.
    """
    if not isinstance(run.state, RingState):
        return None
    started = time.perf_counter()
    state = advance(run.state, changes)
    if state is None:
        return None
    outcome = ring_findings(state)
    elapsed = time.perf_counter() - started
    return _record_run(run.name, run.version, outcome, elapsed, mode="advance")


def _record_run(
    name: str,
    version: str,
    outcome: DetectorOutcome,
    elapsed: float,
    *,
    mode: Literal["scan", "advance"],
) -> DetectorRun:
    """Meter one finished run and wrap its ``outcome``.

    ``mode`` says how the run was made: ``scan`` ran the detector over
    a whole context, ``advance`` carried an earlier run forward.
    """
    metrics = get_registry()
    metrics.counter(
        "repro_detector_runs_total",
        help="Completed detector runs, by detector.",
        detector=name,
    ).inc()
    metrics.counter(
        "repro_findings_runs_total",
        help="Completed detector runs, by detector and how each was made.",
        detector=name,
        mode=mode,
    ).inc()
    metrics.counter(
        "repro_detector_findings_total",
        help="Findings emitted by detector runs.",
        detector=name,
    ).inc(len(outcome.findings))
    metrics.histogram(
        "repro_detector_duration_ms",
        buckets=_RUN_BUCKETS_MS,
        help="Per-detector wall time in milliseconds.",
        detector=name,
    ).observe(elapsed * 1e3)
    return DetectorRun(
        name=name,
        version=version,
        findings=tuple(outcome.findings),
        elapsed_seconds=elapsed,
        attributes=dict(outcome.attributes),
        detection=outcome.detection,
        state=outcome.state,
    )
