"""Experiment I1 — the two-phase pipeline vs one-by-one auditing.

The paper's efficiency argument (Sections 1, 5.2): identifying
suspicious *relationships* first means the ITE-phase examines only ~5%
of the transactions, instead of evaluating every transaction one by
one.  This bench times both strategies on a simulated transaction book
and reports workload and detection quality.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.ite.adjudication import adjudicate_transaction
from repro.ite.pipeline import run_two_phase
from repro.ite.transactions import SimulationConfig, simulate_transactions
from repro.mining.detector import detect


def _setup():
    ds = generate_province(ProvinceConfig.small(companies=300, seed=41))
    base = ds.antecedent_tpiin()
    tpiin = ds.overlay_trading(base, 0.01)
    detection = detect(tpiin, engine="parallel")
    industry_of = {
        c.company_id: c.industry for c in ds.registry.companies.values()
    }
    book = simulate_transactions(
        list(tpiin.trading_arcs()),
        detection.suspicious_trading_arcs,
        industry_of,
        config=SimulationConfig(seed=2),
    )
    return tpiin, detection, book


def test_two_phase_pipeline(benchmark):
    tpiin, detection, book = _setup()
    result = benchmark(
        lambda: run_two_phase(tpiin, book, msg_result=detection)
    )
    assert result.recall == 1.0


def test_one_by_one_baseline(benchmark):
    _tpiin, _detection, book = _setup()
    verdicts = benchmark.pedantic(
        lambda: [adjudicate_transaction(tx) for tx in book],
        rounds=1,
        iterations=1,
    )
    assert len(verdicts) == len(book)


def test_ite_report(benchmark):
    def build_report() -> str:
        tpiin, detection, book = _setup()
        started = time.perf_counter()
        two = run_two_phase(tpiin, book, msg_result=detection)
        two_seconds = time.perf_counter() - started
        started = time.perf_counter()
        all_verdicts = [adjudicate_transaction(tx) for tx in book]
        all_seconds = time.perf_counter() - started
        flagged_all = {
            v.transaction.transaction_id for v in all_verdicts if v.flagged
        }
        rows = [
            [
                "two-phase (proposed)",
                two.transactions_examined,
                len(two.flagged),
                f"{two.precision:.3f}",
                f"{two.recall:.3f}",
                f"{1000 * two_seconds:.1f}",
            ],
            [
                "one-by-one baseline",
                len(book),
                len(flagged_all),
                f"{len(flagged_all & book.evading_ids) / max(1, len(flagged_all)):.3f}",
                f"{len(flagged_all & book.evading_ids) / max(1, len(book.evading_ids)):.3f}",
                f"{1000 * all_seconds:.1f}",
            ],
        ]
        table = render_table(
            ["strategy", "tx examined", "flagged", "precision", "recall", "ms"],
            rows,
            align_right=False,
        )
        return table + f"\nworkload share: {100 * two.workload_share:.2f}%"

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ite_two_phase.txt", report)
    assert "workload share" in report
