"""The detector portfolio driver: one freeze, many detectors.

:func:`run_detectors` resolves a selection against the detector
table, builds **one** shared :class:`~repro.detectors.base.DetectionContext`
(so every detector reads the same frozen trading view — expensive
supporting indexes are computed once, not per detector), executes each
detector under its own trace span, meters every run through
:mod:`repro.obs`, and merges the outcomes into a per-detector-keyed
:class:`~repro.detectors.base.FindingsReport`.  :func:`run_in_context`
is the same run over a context the caller built (the serving daemon's
live state).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Mapping

from repro.detectors.base import DetectionContext, DetectorRun, FindingsReport
from repro.detectors.registry import create_detector, resolve_detectors
from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.obs.registry import get_registry
from repro.obs.tracing import TraceSpec, resolve_tracer

__all__ = ["run_detectors", "run_in_context"]

_RUN_BUCKETS_MS = (1.0, 5.0, 25.0, 100.0, 250.0, 1000.0, 5000.0, 30000.0)


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
    metrics = get_registry()
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
            metrics.counter(
                "repro_detector_runs_total",
                help="Completed detector runs, by detector.",
                detector=name,
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
            runs[name] = DetectorRun(
                name=name,
                version=detector.version,
                findings=tuple(outcome.findings),
                elapsed_seconds=elapsed,
                attributes=dict(outcome.attributes),
                detection=outcome.detection,
            )
        if tracer.enabled:
            root.set(
                detectors=len(runs),
                findings=sum(len(run.findings) for run in runs.values()),
            )
        trace_record = root.record
    return FindingsReport(runs=runs, trace=trace_record)

