"""The Table-1 sweep harness.

Reproduces the paper's headline experiment: build the provincial TPIIN
once, overlay a fresh random trading network at each probability
setting, run detection, and report the same columns the paper tabulates.
The full 20-point paper sweep is
``run_table1(generate_province(), PAPER_TRADING_PROBABILITIES)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.metrics import Table1Row, compute_table1_row
from repro.analysis.reporting import render_table
from repro.datagen.config import PAPER_TRADING_PROBABILITIES
from repro.datagen.province import ProvincialDataset
from repro.mining.detector import detect

__all__ = ["Table1Result", "run_table1", "PAPER_TABLE1"]


@dataclass
class Table1Result:
    """All rows of a sweep plus wall-clock accounting."""

    rows: list[Table1Row] = field(default_factory=list)
    seconds_per_row: list[float] = field(default_factory=list)
    engine: str = "parallel"

    def render(self) -> str:
        return render_table(Table1Row.HEADERS, [r.as_cells() for r in self.rows])

    def render_with_paper(self) -> str:
        """Side-by-side with the paper's counts where a row matches."""
        headers = [
            "p(trade)",
            "complex (paper)",
            "complex (ours)",
            "simple (paper)",
            "simple (ours)",
            "sus trades (paper)",
            "sus trades (ours)",
            "sus % (paper)",
            "sus % (ours)",
        ]
        rows = []
        for row in self.rows:
            paper = PAPER_TABLE1.get(round(row.trading_probability, 3))
            if paper is None:
                continue
            rows.append(
                [
                    f"{row.trading_probability:.3f}",
                    paper[1],
                    row.complex_groups,
                    paper[2],
                    row.simple_groups,
                    paper[3],
                    row.suspicious_trades,
                    f"{paper[5]:.4f}",
                    f"{row.suspicious_percentage:.4f}",
                ]
            )
        return render_table(headers, rows)


def run_table1(
    dataset: ProvincialDataset,
    probabilities: Sequence[float] = PAPER_TRADING_PROBABILITIES,
    *,
    engine: str = "parallel",
    verify_against_oracle: bool = True,
) -> Table1Result:
    """Run the sweep and return the assembled table.

    The antecedent network is fused once; each probability overlays its
    own seeded trading network (matching the paper's "twenty trading
    networks randomly generated").  ``engine`` selects the detector.
    """
    base = dataset.antecedent_tpiin()
    result = Table1Result(engine=engine)
    for probability in probabilities:
        started = time.perf_counter()
        tpiin = dataset.overlay_trading(base, probability)
        detection = detect(tpiin, engine=engine)
        row = compute_table1_row(
            tpiin,
            detection,
            trading_probability=probability,
            check_oracle=verify_against_oracle,
        )
        result.rows.append(row)
        result.seconds_per_row.append(time.perf_counter() - started)
    return result


#: The paper's Table 1, keyed by trading probability:
#: (avg degree, complex groups, simple groups, suspicious trades,
#:  total trades, suspicious percentage).
PAPER_TABLE1: dict[float, tuple[float, int, int, int, int, float]] = {
    0.002: (3.981, 7252, 1507, 611, 11939, 5.1177),
    0.003: (5.275, 11506, 2460, 881, 17869, 4.9247),
    0.004: (6.628, 16021, 3390, 1288, 24069, 5.3513),
    0.005: (7.941, 19375, 3977, 1573, 30094, 5.2270),
    0.006: (9.240, 23071, 4864, 1839, 36036, 5.1032),
    0.008: (11.847, 30745, 6287, 2445, 47978, 5.0961),
    0.010: (14.491, 36702, 7881, 2991, 60117, 4.9753),
    0.012: (17.163, 44148, 8989, 3619, 72310, 5.0048),
    0.014: (19.728, 51023, 10776, 4258, 84064, 5.0652),
    0.016: (22.424, 60777, 12680, 4895, 96403, 5.0776),
    0.018: (24.965, 67614, 13997, 5514, 108045, 5.1034),
    0.020: (27.522, 75875, 16103, 6012, 119759, 5.0201),
    0.030: (40.748, 111885, 23328, 9122, 180401, 5.0565),
    0.040: (53.793, 149795, 31123, 12126, 240190, 5.0485),
    0.050: (66.827, 185405, 38501, 15089, 299898, 5.0314),
    0.060: (79.940, 226187, 47361, 18212, 359975, 5.0592),
    0.070: (93.011, 261367, 55088, 21214, 419914, 5.0520),
    0.080: (106.276, 298458, 62627, 24150, 480637, 5.0246),
    0.090: (119.554, 333271, 69844, 27129, 541489, 5.0101),
    0.100: (132.759, 372050, 78252, 30288, 602053, 5.0308),
}
