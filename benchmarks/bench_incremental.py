"""Extension bench — streaming detection throughput.

Measures the incremental detector's per-filing latency against batch
re-detection after every batch, the honest alternative for an online
monitor.  The antecedent index is built once; each arriving trading
arc costs one bitset AND plus (for suspicious arcs only) the group
enumeration over cached root paths.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.datagen.config import ProvinceConfig, TradingConfig
from repro.datagen.province import generate_province
from repro.datagen.trading import random_trading_arcs
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.model.colors import EColor


def _setup(companies: int = 400, n_arcs: int = 2000):
    ds = generate_province(ProvinceConfig.small(companies=companies, seed=43))
    base = ds.antecedent_tpiin()
    feed = random_trading_arcs(
        ds.company_ids, TradingConfig(probability=0.05, seed=43)
    )[:n_arcs]
    return ds, base, feed


def test_stream_ingest(benchmark):
    _ds, base, feed = _setup()

    def ingest():
        monitor = IncrementalDetector(base)
        for arc in feed:
            monitor.add_trading_arc(*arc)
        return monitor

    monitor = benchmark.pedantic(ingest, rounds=1, iterations=1)
    assert len(monitor) == len(feed)


def test_batch_equivalent(benchmark):
    ds, base, feed = _setup()

    def batch():
        tpiin = TPIIN(
            graph=base.antecedent_graph(),
            node_map=dict(base.node_map),
            scs_subgraphs=dict(base.scs_subgraphs),
        )
        tpiin.graph.add_arcs(feed, EColor.TRADING)
        return detect(tpiin, engine="parallel")

    result = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert result.total_trading_arcs == len(set(feed))


def test_streaming_report(benchmark):
    def build_report() -> str:
        _ds, base, feed = _setup()
        monitor = IncrementalDetector(base)
        started = time.perf_counter()
        suspicious = 0
        for arc in feed:
            if monitor.add_trading_arc(*arc).suspicious:
                suspicious += 1
        stream_seconds = time.perf_counter() - started
        per_arc_us = 1e6 * stream_seconds / len(feed)

        rows = [
            ["filings streamed", f"{len(feed):,}"],
            ["suspicious alerts", f"{suspicious:,}"],
            ["total stream time", f"{1000 * stream_seconds:.1f} ms"],
            ["latency per filing", f"{per_arc_us:.1f} us"],
            [
                "throughput",
                f"{len(feed) / stream_seconds:,.0f} filings/s",
            ],
        ]
        return render_table(["metric", "value"], rows, align_right=False)

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("streaming.txt", report)
    assert "filings/s" in report
