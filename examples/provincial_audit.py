#!/usr/bin/env python3
"""The provincial-scale experiment of Section 5 (Table 1, Figs. 11-16).

Generates the synthetic provincial dataset (776 directors, 1,350 legal
persons, 2,452 companies — the paper's scale), fuses the TPIIN, sweeps
trading probabilities and prints the Table-1 rows next to the paper's
published numbers.

Run:
    python examples/provincial_audit.py              # 6-point sweep (~1 min)
    python examples/provincial_audit.py --full       # the paper's 20 points
    python examples/provincial_audit.py --export DIR # GraphML for Figs 11-16
    python examples/provincial_audit.py --investigate C00001
"""

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import run_table1
from repro.analysis.investigate import investigate_company
from repro.datagen import PAPER_TRADING_PROBABILITIES, ProvinceConfig, generate_province
from repro.io.graphml import write_graphml, write_ungraph_graphml
from repro.mining import detect

REDUCED_PROBABILITIES = (0.002, 0.004, 0.01, 0.02, 0.05, 0.1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run all 20 sweep points")
    parser.add_argument("--seed", type=int, default=20170417)
    parser.add_argument("--export", type=Path, help="write GraphML figures here")
    parser.add_argument("--investigate", metavar="COMPANY", help="drill into one company")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    dataset = generate_province(ProvinceConfig(seed=args.seed))
    print(f"generated provincial dataset in {time.perf_counter() - started:.1f}s")
    for figure, caption in dataset.figure_stats().items():
        print(f"  {figure}: {caption}")
    print(
        f"  planned in-cluster pair share: "
        f"{100 * dataset.planned_suspicious_share:.2f}% (Table 1's ~5%)"
    )
    print()

    if args.export:
        args.export.mkdir(parents=True, exist_ok=True)
        base = dataset.antecedent_tpiin()
        tpiin = dataset.overlay_trading(base, 0.002)
        write_ungraph_graphml(dataset.interdependence.graph, args.export / "fig11_g1.graphml")
        write_graphml(dataset.influence.graph, args.export / "fig12_g2.graphml")
        write_graphml(dataset.investment.graph, args.export / "fig13_g3.graphml")
        write_graphml(tpiin.antecedent_graph(), args.export / "fig14_antecedent.graphml")
        write_graphml(tpiin.trading_graph(), args.export / "fig15_g4.graphml")
        write_graphml(tpiin.graph, args.export / "fig16_tpiin.graphml")
        print(f"wrote 6 GraphML files to {args.export}")
        print()

    if args.investigate:
        base = dataset.antecedent_tpiin()
        tpiin = dataset.overlay_trading(base, 0.002)
        result = detect(tpiin, engine="parallel")
        briefing = investigate_company(tpiin, result, args.investigate)
        print(briefing.render())
        print()
        print("Investment tree (Fig. 17 style):")
        print(briefing.investment_tree(tpiin))
        return 0

    probabilities = PAPER_TRADING_PROBABILITIES if args.full else REDUCED_PROBABILITIES
    print(f"running Table-1 sweep over {len(probabilities)} trading probabilities ...")
    sweep = run_table1(dataset, probabilities)
    print()
    print(sweep.render())
    print()
    print("side by side with the paper:")
    print(sweep.render_with_paper())
    print()
    total = sum(sweep.seconds_per_row)
    print(f"sweep completed in {total:.1f}s "
          f"({', '.join(f'{s:.1f}s' for s in sweep.seconds_per_row)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
