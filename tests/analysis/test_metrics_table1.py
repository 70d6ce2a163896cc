"""Unit tests for Table-1 metrics and the sweep harness."""

import pytest

from repro.analysis.metrics import Table1Row, compute_table1_row
from repro.analysis.table1 import PAPER_TABLE1, run_table1
from repro.datagen.config import PAPER_TRADING_PROBABILITIES
from repro.mining.detector import detect


class TestRow:
    def test_row_from_fig8(self, fig8):
        result = detect(fig8)
        row = compute_table1_row(fig8, result, trading_probability=0.5)
        assert row.suspicious_trades == 3
        assert row.total_trades == 5
        assert row.trade_accuracy == 1.0
        assert row.group_accuracy == 1.0
        assert row.simple_groups == 3
        assert row.complex_groups == 0
        assert row.suspicious_percentage == pytest.approx(60.0)

    def test_reference_comparison(self, fig8):
        result = detect(fig8)
        row = compute_table1_row(
            fig8, result, trading_probability=0.5, reference_result=result
        )
        assert row.group_accuracy == 1.0

    def test_skip_oracle(self, fig8):
        result = detect(fig8)
        row = compute_table1_row(
            fig8, result, trading_probability=0.5, check_oracle=False
        )
        assert row.trade_accuracy == 1.0

    def test_cells_and_headers_align(self, fig8):
        result = detect(fig8)
        row = compute_table1_row(fig8, result, trading_probability=0.5)
        assert len(row.as_cells()) == len(Table1Row.HEADERS)


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_province):
        return run_table1(small_province, probabilities=(0.01, 0.03, 0.06))

    def test_row_count_and_timings(self, sweep):
        assert len(sweep.rows) == 3
        assert len(sweep.seconds_per_row) == 3
        assert all(s > 0 for s in sweep.seconds_per_row)

    def test_trading_counts_grow_with_probability(self, sweep):
        totals = [row.total_trades for row in sweep.rows]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    def test_perfect_accuracy(self, sweep):
        assert all(row.trade_accuracy == 1.0 for row in sweep.rows)
        assert all(row.group_accuracy == 1.0 for row in sweep.rows)

    def test_suspicious_share_stable(self, sweep):
        shares = [row.suspicious_percentage for row in sweep.rows]
        assert max(shares) - min(shares) < 3.0  # roughly flat, like Table 1

    def test_render(self, sweep):
        text = sweep.render()
        assert "p(trade)" in text
        assert len(text.splitlines()) == 2 + len(sweep.rows)

    def test_faithful_engine_sweep(self, small_province):
        sweep = run_table1(
            small_province, probabilities=(0.01,), engine="faithful"
        )
        assert sweep.rows[0].trade_accuracy == 1.0


class TestPaperReference:
    def test_paper_table_covers_all_probabilities(self):
        assert set(PAPER_TABLE1) == set(PAPER_TRADING_PROBABILITIES)

    def test_paper_suspicious_share_band(self):
        shares = [row[5] for row in PAPER_TABLE1.values()]
        assert min(shares) > 4.9 and max(shares) < 5.4

    def test_render_with_paper(self, small_province):
        sweep = run_table1(small_province, probabilities=(0.01,))
        text = sweep.render_with_paper()
        assert "complex (paper)" in text
        assert "36,702" in text  # the paper's p=0.01 complex count


class TestSweepOptions:
    def test_skip_oracle_verification(self, small_province):
        sweep = run_table1(
            small_province, probabilities=(0.02,), verify_against_oracle=False
        )
        assert sweep.rows[0].trade_accuracy == 1.0  # reported, unchecked

    def test_collect_groups_mode(self, small_province):
        sweep = run_table1(small_province, probabilities=(0.02,))
        assert sweep.rows[0].group_accuracy == 1.0
