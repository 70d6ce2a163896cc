"""Extension bench — scaling with network size.

The paper's conclusion points to parallel/distributed processing "with
the increasing of the size of the TPIIN".  This bench grows the
synthetic province from 500 to 4,000 companies (holding the trading
probability fixed) and reports how the parallel engine's detection
time scales: one whole-graph freeze, then a patterns-tree walk per
influence component, so the per-trading-arc cost should stay
near-constant while components stay small.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.mining.detector import detect

SIZES = (500, 1000, 2000, 4000)
PROBABILITY = 0.01


def _tpiin_for(companies: int):
    ds = generate_province(ProvinceConfig.small(companies=companies, seed=47))
    base = ds.antecedent_tpiin()
    return ds.overlay_trading(base, PROBABILITY)


@pytest.mark.parametrize("companies", SIZES)
def test_scaling_detection(benchmark, companies):
    tpiin = _tpiin_for(companies)
    result = benchmark.pedantic(
        detect,
        args=(tpiin,),
        kwargs={"engine": "parallel"},
        rounds=1,
        iterations=1,
    )
    assert result.total_trading_arcs > 0


def test_scaling_report(benchmark):
    def build_report() -> str:
        rows = []
        for companies in SIZES:
            tpiin = _tpiin_for(companies)
            started = time.perf_counter()
            result = detect(tpiin, engine="parallel")
            seconds = time.perf_counter() - started
            per_arc_us = 1e6 * seconds / max(1, result.total_trading_arcs)
            rows.append(
                [
                    companies,
                    result.total_trading_arcs,
                    result.suspicious_arc_count,
                    result.group_count,
                    f"{1000 * seconds:.1f}",
                    f"{per_arc_us:.2f}",
                ]
            )
        return render_table(
            [
                "companies",
                "trading arcs",
                "suspicious",
                "groups",
                "detect ms",
                "us / arc",
            ],
            rows,
        )

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("scaling.txt", report)
    assert "us / arc" in report
