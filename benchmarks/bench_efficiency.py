"""Experiment E1 — efficiency of the proposed method vs the baseline.

The paper claims (Sections 1 and 5) that the pattern-tree method
"greatly improves the efficiency" over the global traversing baseline.
This bench times the faithful engine, the parallel engine and the
global-traversal baseline on growing synthetic TPIINs and reports the
speedup curve.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.baseline.global_traversal import global_traversal_detect
from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.mining.detector import detect

SIZES = (60, 120, 240)


def _tpiin_for(companies: int):
    ds = generate_province(ProvinceConfig.small(companies=companies, seed=31))
    base = ds.antecedent_tpiin()
    return ds.overlay_trading(base, 0.02)


@pytest.mark.parametrize("companies", SIZES)
def test_faithful_engine(benchmark, companies):
    tpiin = _tpiin_for(companies)
    result = benchmark(lambda: detect(tpiin))
    assert result.suspicious_arc_count >= 0


@pytest.mark.parametrize("companies", SIZES)
def test_parallel_engine(benchmark, companies):
    tpiin = _tpiin_for(companies)
    result = benchmark(lambda: detect(tpiin, engine="parallel"))
    assert result.suspicious_arc_count >= 0


@pytest.mark.parametrize("companies", SIZES)
def test_global_traversal_baseline(benchmark, companies):
    tpiin = _tpiin_for(companies)
    result = benchmark.pedantic(
        global_traversal_detect, args=(tpiin,), rounds=1, iterations=1
    )
    assert result.suspicious_arc_count >= 0


def test_efficiency_report(benchmark):
    """One-shot timing table across sizes and methods."""

    def build_report() -> str:
        rows = []
        for companies in SIZES:
            tpiin = _tpiin_for(companies)
            timings = {}
            for name, runner in (
                ("faithful", lambda: detect(tpiin)),
                ("parallel", lambda: detect(tpiin, engine="parallel")),
                ("baseline", lambda: global_traversal_detect(tpiin)),
            ):
                started = time.perf_counter()
                runner()
                timings[name] = time.perf_counter() - started
            rows.append(
                [
                    companies,
                    f"{1000 * timings['faithful']:.1f}",
                    f"{1000 * timings['parallel']:.1f}",
                    f"{1000 * timings['baseline']:.1f}",
                    f"{timings['baseline'] / timings['parallel']:.1f}x",
                ]
            )
        return render_table(
            ["companies", "faithful ms", "parallel ms", "baseline ms", "speedup"],
            rows,
        )

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("efficiency.txt", report)
    assert "speedup" in report
