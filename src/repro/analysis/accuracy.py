"""Cross-engine accuracy harness.

Behind Table 1's 100% accuracy columns sits an agreement check between
the proposed method and the baseline; this module generalizes it: run
any subset of {faithful, parallel, global-traversal} plus the
reachability oracle on the same TPIIN and report pairwise agreement on
group sets and suspicious-arc sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.global_traversal import global_traversal_detect
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.mining.detector import DetectionResult, detect
from repro.mining.oracle import suspicious_arc_oracle

__all__ = ["AccuracyReport", "compare_engines"]


@dataclass
class AccuracyReport:
    """Pairwise agreement between engines on one TPIIN."""

    results: dict[str, DetectionResult] = field(default_factory=dict)
    oracle_arcs: set[tuple[Node, Node]] = field(default_factory=set)
    group_agreement: dict[tuple[str, str], bool] = field(default_factory=dict)
    arc_agreement: dict[str, bool] = field(default_factory=dict)

    @property
    def all_agree(self) -> bool:
        return all(self.group_agreement.values()) and all(
            self.arc_agreement.values()
        )

    def render(self) -> str:
        lines = []
        for engine, result in self.results.items():
            lines.append(f"{engine}: {result.summary()}")
        for (a, b), ok in sorted(self.group_agreement.items()):
            lines.append(f"groups[{a} == {b}]: {'OK' if ok else 'MISMATCH'}")
        for engine, ok in sorted(self.arc_agreement.items()):
            lines.append(f"arcs[{engine} == oracle]: {'OK' if ok else 'MISMATCH'}")
        return "\n".join(lines)


def compare_engines(
    tpiin: TPIIN,
    *,
    engines: tuple[str, ...] = ("faithful", "parallel", "global-traversal"),
) -> AccuracyReport:
    """Run the requested engines and compare their outputs.

    Group agreement compares deduplicated group keys (node-sequence
    pairs); arc agreement compares each engine's suspicious-arc set with
    the reachability oracle.
    """
    report = AccuracyReport(oracle_arcs=suspicious_arc_oracle(tpiin))
    for engine in engines:
        if engine == "global-traversal":
            report.results[engine] = global_traversal_detect(tpiin)
        else:
            report.results[engine] = detect(tpiin, engine=engine)

    names = list(report.results)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            keys_a = {g.key() for g in report.results[a].groups}
            keys_b = {g.key() for g in report.results[b].groups}
            report.group_agreement[(a, b)] = keys_a == keys_b
    for name, result in report.results.items():
        report.arc_agreement[name] = (
            result.suspicious_trading_arcs == report.oracle_arcs
        )
    return report
