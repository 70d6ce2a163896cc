"""Experiment T1 — Table 1: suspicious groups over trading probabilities.

Benchmarks detection at a representative subset of the paper's twenty
probability settings (the full 20-point sweep at paper scale is
``examples/provincial_audit.py --full``), then regenerates the Table-1
rows side by side with the paper's published counts.

Expected shape (see EXPERIMENTS.md): counts grow linearly with the
trading probability, the suspicious share stays ~5%, complex groups
outnumber simple ones roughly 5:1, and both accuracy columns are 100%.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.analysis.metrics import Table1Row, compute_table1_row
from repro.analysis.reporting import render_table
from repro.analysis.table1 import PAPER_TABLE1
from repro.mining.detector import detect

#: Reduced sweep used by the benchmark run.
BENCH_PROBABILITIES = (0.002, 0.004, 0.01, 0.02, 0.05, 0.1)


@pytest.mark.parametrize("probability", BENCH_PROBABILITIES)
def test_table1_detection(benchmark, paper_province, paper_base, probability):
    """Time one sweep point: overlay + parallel detection."""
    tpiin = paper_province.overlay_trading(paper_base, probability)

    result = benchmark.pedantic(
        detect,
        args=(tpiin,),
        kwargs={"engine": "parallel"},
        rounds=1,
        iterations=1,
    )
    assert result.suspicious_arc_count > 0
    paper = PAPER_TABLE1[probability]
    # Shape check: within 2x of the paper's counts on every column.
    assert result.complex_group_count == pytest.approx(paper[1], rel=1.0)
    assert result.simple_group_count == pytest.approx(paper[2], rel=1.0)
    assert result.suspicious_arc_count == pytest.approx(paper[3], rel=1.0)
    assert result.total_trading_arcs == pytest.approx(paper[4], rel=0.25)


def test_table1_report(benchmark, paper_province, paper_base):
    """Regenerate the Table-1 rows and write the paper comparison."""

    def build_rows() -> list[Table1Row]:
        rows: list[Table1Row] = []
        for probability in BENCH_PROBABILITIES:
            tpiin = paper_province.overlay_trading(paper_base, probability)
            detection = detect(tpiin, engine="parallel")
            rows.append(
                compute_table1_row(
                    tpiin, detection, trading_probability=probability
                )
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)

    headers = list(Table1Row.HEADERS)
    table = render_table(headers, [r.as_cells() for r in rows])

    comparison_headers = [
        "p(trade)",
        "complex paper/ours",
        "simple paper/ours",
        "sus trades paper/ours",
        "total paper/ours",
        "sus% paper/ours",
    ]
    comparison_rows = []
    for row in rows:
        paper = PAPER_TABLE1[round(row.trading_probability, 3)]
        comparison_rows.append(
            [
                f"{row.trading_probability:.3f}",
                f"{paper[1]:,} / {row.complex_groups:,}",
                f"{paper[2]:,} / {row.simple_groups:,}",
                f"{paper[3]:,} / {row.suspicious_trades:,}",
                f"{paper[4]:,} / {row.total_trades:,}",
                f"{paper[5]:.2f} / {row.suspicious_percentage:.2f}",
            ]
        )
    comparison = render_table(comparison_headers, comparison_rows)
    write_report("table1.txt", table + "\n\npaper vs ours\n" + comparison)

    assert all(r.trade_accuracy == 1.0 for r in rows)
    assert all(r.group_accuracy == 1.0 for r in rows)
    shares = [r.suspicious_percentage for r in rows]
    assert max(shares) - min(shares) < 1.0  # the ~5% plateau
