"""Robustness ablation — does Table 1's ~5% plateau need the ER model?

The paper generates trading networks with Gephi's random (Erdos-Renyi)
generator.  The suspicious share, however, should be a property of the
*antecedent* structure alone: any trading model that picks partners
without regard to antecedent kinship should land on the same share.
This bench swaps the ER generator for a preferential-attachment
(scale-free) one — closer to real trading networks, with hub
wholesalers — and compares the resulting shares.  Expected: within a
fraction of a percentage point of the ER figures.
"""

from __future__ import annotations

from benchmarks.conftest import write_report
from repro.analysis.reporting import render_table
from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.datagen.trading import scale_free_trading_arcs
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor


def _overlay_arcs(dataset, base, arcs) -> TPIIN:
    graph = base.antecedent_graph()
    node_map = base.node_map
    mapped = [
        (node_map.get(s, s), node_map.get(b, b))
        for s, b in arcs
        if node_map.get(s, s) != node_map.get(b, b)
    ]
    graph.add_arcs(mapped, EColor.TRADING)
    return TPIIN(graph=graph, node_map=dict(node_map))


def test_scale_free_detection(benchmark, paper_province, paper_base):
    arcs = scale_free_trading_arcs(
        paper_province.company_ids, arcs_per_company=5, seed=61
    )
    tpiin = _overlay_arcs(paper_province, paper_base, arcs)
    result = benchmark.pedantic(
        detect, args=(tpiin,), kwargs={"engine": "parallel"},
        rounds=1, iterations=1,
    )
    assert result.total_trading_arcs > 0


def test_robustness_report(benchmark, paper_province, paper_base):
    def build_report() -> str:
        rows = []
        # ER reference at a similar arc count.
        er = paper_province.overlay_trading(paper_base, 0.002)
        er_result = detect(er, engine="parallel")
        rows.append(
            [
                "Erdos-Renyi p=0.002",
                er_result.total_trading_arcs,
                er_result.suspicious_arc_count,
                f"{100 * er_result.suspicious_arc_share:.3f}%",
            ]
        )
        for m in (3, 5, 10):
            arcs = scale_free_trading_arcs(
                paper_province.company_ids, arcs_per_company=m, seed=61
            )
            tpiin = _overlay_arcs(paper_province, paper_base, arcs)
            result = detect(tpiin, engine="parallel")
            rows.append(
                [
                    f"scale-free m={m}",
                    result.total_trading_arcs,
                    result.suspicious_arc_count,
                    f"{100 * result.suspicious_arc_share:.3f}%",
                ]
            )
        return render_table(
            ["trading model", "arcs", "suspicious", "share"],
            rows,
            align_right=False,
        )

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("robustness_trading_model.txt", report)
    assert "scale-free" in report
