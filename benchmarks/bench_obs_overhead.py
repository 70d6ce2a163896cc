"""Guard: disabled tracing costs < 3% of detect() wall time.

Every pipeline stage now enters ``with tracer.span(...)`` blocks even
when tracing is off (the null-object path).  This guard bounds the
disabled-path cost *structurally* rather than by differential timing —
two timed runs of the same engine differ by more than 3% from machine
noise alone, so a naive traced-vs-untraced comparison cannot resolve
the question.  Instead:

1. run ONE traced detect on the densest baseline setting and count the
   span operations the run actually performs;
2. measure the per-operation cost of ``NULL_TRACER`` in a tight loop
   (span + enter + exit + the ``enabled`` guard);
3. assert spans x per-op cost < 3% of that setting's recorded wall in
   the repo-root ``BENCH_PR7.json`` baseline.

Plus allocation checks: an untraced run must never construct a
``Tracer`` or attach a trace to its result.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

import pytest

from benchmarks.run_bench import FULL_SETTINGS, build_tpiin
from repro.mining.detector import detect
from repro.obs.tracing import NULL_TRACER, Tracer, resolve_tracer

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

#: The guarded setting — densest of the baseline sweep, faithful engine
#: (the engine with the most span sites: one per subTPIIN plus nested
#: patterns-tree/match spans).
GUARD_LABEL = "densest-720"
GUARD_ENGINE = "faithful"

#: Allowed disabled-tracing overhead as a fraction of baseline wall.
TOLERANCE = 0.03

#: Null operations per span site: tracer.span() + __enter__ + __exit__
#: plus one ``tracer.enabled`` check guarding the attribute set.
NULL_OPS_PER_SPAN = 4


def _baseline_wall_seconds() -> float:
    report = json.loads(BASELINE_PATH.read_text())
    for setting in report["settings"]:
        if setting["label"] == GUARD_LABEL:
            return float(setting["engines"][GUARD_ENGINE]["wall_seconds"])
    raise AssertionError(f"{GUARD_LABEL} missing from {BASELINE_PATH}")


def _null_op_seconds(iterations: int = 200_000) -> float:
    """Per-operation cost of the null tracer's hot path."""
    tracer = NULL_TRACER
    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("stage"):
            if tracer.enabled:  # pragma: no cover - never taken
                raise AssertionError
    elapsed = time.perf_counter() - started
    # Each loop iteration exercises span + enter + exit + enabled.
    return elapsed / (iterations * NULL_OPS_PER_SPAN)


def test_null_tracer_overhead_is_under_tolerance(benchmark):
    label_setting = next(s for s in FULL_SETTINGS if s[0] == GUARD_LABEL)
    _, companies, probability = label_setting
    tpiin = build_tpiin(companies, probability)

    tracer = Tracer()
    benchmark.pedantic(
        detect,
        args=(tpiin,),
        kwargs={"engine": GUARD_ENGINE, "trace": tracer},
        rounds=1,
        iterations=1,
    )
    span_sites = tracer.span_count()
    assert span_sites > 0

    per_op = _null_op_seconds()
    # Disabled runs pay the null objects at the same sites the traced
    # run recorded (attribute-set kwargs never materialize: they sit
    # behind the ``enabled`` guard, the fourth op counted per site).
    overhead = span_sites * NULL_OPS_PER_SPAN * per_op
    baseline = _baseline_wall_seconds()
    share = overhead / baseline
    print(
        f"\n{span_sites} span sites x {NULL_OPS_PER_SPAN} null ops "
        f"x {per_op * 1e9:.1f} ns = {overhead * 1e3:.3f} ms "
        f"({share * 100.0:.3f}% of {GUARD_LABEL}/{GUARD_ENGINE} "
        f"baseline {baseline:.3f} s)"
    )
    assert share < TOLERANCE, (
        f"disabled-tracing overhead {share * 100.0:.2f}% exceeds "
        f"{TOLERANCE * 100.0:.0f}% of the {GUARD_LABEL} baseline"
    )


def test_untraced_detect_allocates_no_tracer():
    default = inspect.signature(detect).parameters["trace"].default
    assert resolve_tracer(default) is NULL_TRACER
    assert resolve_tracer(False) is NULL_TRACER


def test_untraced_result_carries_no_trace():
    _, companies, probability = FULL_SETTINGS[0]
    tpiin = build_tpiin(companies, probability)
    result = detect(tpiin, engine="parallel")
    assert result.trace is None


@pytest.mark.parametrize("attr", ["span", "record", "enabled"])
def test_null_objects_expose_the_tracer_protocol(attr):
    assert hasattr(NULL_TRACER, attr)
