"""Unit tests for the two-phase MSG + ITE pipeline."""

import pytest

from repro.ite.pipeline import run_two_phase
from repro.ite.transactions import SimulationConfig, simulate_transactions
from repro.mining.detector import detect


@pytest.fixture(scope="module")
def setup(request):
    small_province = request.getfixturevalue("small_province")
    tpiin = request.getfixturevalue("small_province_tpiin")
    result = detect(tpiin, engine="parallel")
    industry_of = {
        c.company_id: c.industry for c in small_province.registry.companies.values()
    }
    book = simulate_transactions(
        list(tpiin.trading_arcs()),
        result.suspicious_trading_arcs,
        industry_of,
        config=SimulationConfig(evasion_rate=0.5, seed=3),
    )
    return tpiin, result, book


class TestTwoPhase:
    def test_full_recall_on_planted_evasion(self, setup):
        tpiin, result, book = setup
        two = run_two_phase(tpiin, book, msg_result=result)
        # Evasion is planted only on IAT arcs the MSG-phase finds, and the
        # under-invoicing is aggressive enough for the ALP methods.
        assert two.recall == 1.0
        assert two.true_positives == len(book.evading_ids)

    def test_high_precision(self, setup):
        tpiin, result, book = setup
        two = run_two_phase(tpiin, book, msg_result=result)
        # A handful of aggressively discounted honest transactions are
        # expected false positives; precision stays well above chance.
        assert two.precision >= 0.7
        assert 0.0 <= two.f1 <= 1.0

    def test_workload_reduction(self, setup):
        tpiin, result, book = setup
        two = run_two_phase(tpiin, book, msg_result=result)
        assert two.transactions_total == len(book)
        assert two.workload_share < 0.25  # only suspicious arcs examined
        assert two.transactions_examined < two.transactions_total

    def test_recovered_tax_positive(self, setup):
        tpiin, result, book = setup
        two = run_two_phase(tpiin, book, msg_result=result)
        assert two.recovered_tax > 0
        assert len(two.flagged) >= two.true_positives

    def test_summary_text(self, setup):
        tpiin, result, book = setup
        summary = run_two_phase(tpiin, book, msg_result=result).summary()
        assert "precision" in summary and "recall" in summary

    def test_runs_detection_when_not_supplied(self, setup):
        tpiin, _result, book = setup
        two = run_two_phase(tpiin, book, engine="faithful")
        assert two.msg_result.engine == "faithful"
        assert two.recall == 1.0

    def test_empty_book(self, setup):
        tpiin, result, _book = setup
        from repro.ite.transactions import TransactionBook

        two = run_two_phase(tpiin, TransactionBook(), msg_result=result)
        assert two.workload_share == 0.0
        assert two.precision == 1.0
        assert two.recall == 1.0
