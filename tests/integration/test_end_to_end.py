"""Integration: the full pipeline over a synthetic province.

Generate -> fuse -> mine (all engines) -> score -> ITE -> investigate ->
persist, on one small provincial dataset.
"""

import pytest

from repro.analysis.investigate import investigate_company
from repro.analysis.metrics import compute_table1_row
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.results_io import read_detection_json, write_detection_json
from repro.ite.pipeline import run_two_phase
from repro.ite.transactions import SimulationConfig, simulate_transactions
from repro.mining.detector import detect
from repro.mining.detector import detect
from repro.weights.scoring import rank_trading_arcs


@pytest.fixture(scope="module")
def detection(request):
    tpiin = request.getfixturevalue("small_province_tpiin")
    return detect(tpiin, engine="parallel")


class TestFullPipeline:
    def test_mining_is_consistent(self, small_province_tpiin, detection):
        faithful = detect(small_province_tpiin)
        assert {g.key() for g in faithful.groups} == {
            g.key() for g in detection.groups
        }

    def test_table1_row_accurate(self, small_province_tpiin, detection):
        row = compute_table1_row(
            small_province_tpiin, detection, trading_probability=0.01
        )
        assert row.trade_accuracy == 1.0
        assert row.suspicious_trades > 0
        assert 0 < row.suspicious_percentage < 100

    def test_scoring_and_investigation(self, small_province_tpiin, detection):
        ranked = rank_trading_arcs(detection, small_province_tpiin)
        assert ranked
        top_score, (seller, buyer) = ranked[0]
        assert 0 < top_score <= 1.0
        briefing = investigate_company(small_province_tpiin, detection, seller)
        assert briefing.groups
        text = briefing.render()
        assert str(seller) in text

    def test_two_phase_workload(self, small_province, small_province_tpiin, detection):
        industry_of = {
            c.company_id: c.industry
            for c in small_province.registry.companies.values()
        }
        book = simulate_transactions(
            list(small_province_tpiin.trading_arcs()),
            detection.suspicious_trading_arcs,
            industry_of,
            config=SimulationConfig(seed=1),
        )
        two = run_two_phase(small_province_tpiin, book, msg_result=detection)
        assert two.recall == 1.0
        assert two.workload_share < 0.25

    def test_persistence_roundtrip(self, small_province_tpiin, detection, tmp_path):
        write_tpiin_csv(
            small_province_tpiin, tmp_path / "arcs.csv", tmp_path / "nodes.csv"
        )
        loaded = read_tpiin_csv(tmp_path / "arcs.csv", tmp_path / "nodes.csv")
        reloaded_result = detect(loaded, engine="parallel")
        assert (
            reloaded_result.suspicious_trading_arcs
            == detection.suspicious_trading_arcs
        )
        json_path = write_detection_json(detection, tmp_path / "result.json")
        payload = read_detection_json(json_path)
        assert payload["simple_group_count"] == detection.simple_group_count


class TestScsIntegration:
    def test_mutual_investment_province(self):
        from repro.datagen.config import ProvinceConfig
        from repro.datagen.province import generate_province
        from repro.mining.groups import GroupKind
        from repro.mining.oracle import suspicious_arc_oracle

        cfg = ProvinceConfig(
            companies=150,
            legal_persons=85,
            directors=48,
            seed=23,
            mutual_investment_pairs=4,
        )
        ds = generate_province(cfg)
        base = ds.antecedent_tpiin()
        assert base.scs_subgraphs
        tpiin = ds.overlay_trading(base, 0.05)
        result = detect(tpiin)
        if tpiin.intra_scs_trades:
            scs_groups = [g for g in result.groups if g.kind is GroupKind.SCS]
            assert len(scs_groups) == len(set(tpiin.intra_scs_trades))
        assert result.suspicious_trading_arcs == suspicious_arc_oracle(tpiin)
        parallel = detect(tpiin, engine="parallel")
        assert {g.key() for g in parallel.groups} == {g.key() for g in result.groups}
