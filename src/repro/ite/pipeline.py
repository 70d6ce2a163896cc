"""The full two-phase detection pipeline (MSG-phase + ITE-phase).

Section 3.2 / Fig. 4: the MSG-phase mines suspicious groups from the
TPIIN; the ITE-phase then applies traditional ALP judgment *only to the
transactions behind suspicious trading relationships*.  The pipeline's
value is the workload reduction — Table 1's ~5% suspicious share means
the ITE-phase examines ~5% of all transactions — at no recall cost for
IAT-based schemes (an IAT requires an interest relationship, which the
MSG-phase captures by construction).

:func:`run_two_phase` returns flagged transactions, recovered tax, the
planted-ground-truth confusion matrix and the workload comparison
against the paper's one-by-one baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fusion.tpiin import TPIIN
from repro.ite.adjudication import TransactionVerdict, adjudicate_transaction
from repro.ite.transactions import IndustryProfile, TransactionBook
from repro.mining.detector import DetectionResult, detect
from repro.obs.tracing import NULL_TRACER, TracerLike

__all__ = ["TwoPhaseResult", "run_two_phase"]


@dataclass
class TwoPhaseResult:
    """Everything the two-phase pipeline produced."""

    msg_result: DetectionResult
    verdicts: list[TransactionVerdict] = field(default_factory=list)
    transactions_examined: int = 0
    transactions_total: int = 0
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def flagged(self) -> list[TransactionVerdict]:
        return [v for v in self.verdicts if v.flagged]

    @property
    def recovered_tax(self) -> float:
        return sum(v.recovered_tax for v in self.flagged)

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def workload_share(self) -> float:
        """Share of all transactions the ITE-phase had to examine."""
        if self.transactions_total == 0:
            return 0.0
        return self.transactions_examined / self.transactions_total

    def summary(self) -> str:
        return (
            f"examined {self.transactions_examined}/{self.transactions_total} "
            f"transactions ({100 * self.workload_share:.2f}%), flagged "
            f"{len(self.flagged)}, precision={self.precision:.3f} "
            f"recall={self.recall:.3f} f1={self.f1:.3f}, recovered tax "
            f"{self.recovered_tax:,.0f}"
        )


def run_two_phase(
    tpiin: TPIIN,
    book: TransactionBook,
    *,
    engine: str = "parallel",
    profiles: dict[str, IndustryProfile] | None = None,
    msg_result: DetectionResult | None = None,
    tracer: TracerLike = NULL_TRACER,
) -> TwoPhaseResult:
    """Run MSG-phase detection, then ALP adjudication on the survivors.

    ``msg_result`` may carry a precomputed detection to avoid re-mining.
    Ground-truth accounting uses the book's planted ``evading_ids``:
    a false negative is a planted evasion whose transaction the
    ITE-phase either never examined (arc not suspicious) or examined but
    cleared.  A real ``tracer`` nests the MSG-phase's engine spans and
    the ITE judgment under the caller's span tree.
    """
    if msg_result is not None:
        result = msg_result
    else:
        with tracer.span("msg_phase"):
            result = detect(tpiin, engine=engine, trace=tracer)
    suspicious = result.suspicious_trading_arcs
    with tracer.span("ite_judgment") as ite_span:
        examined = book.for_arcs(suspicious)
        verdicts = [adjudicate_transaction(tx, profiles) for tx in examined]
        if tracer.enabled:
            ite_span.set(
                examined=len(examined),
                flagged=sum(1 for v in verdicts if v.flagged),
                total=len(book),
            )

    flagged_ids = {v.transaction.transaction_id for v in verdicts if v.flagged}
    evading = book.evading_ids
    tp = len(flagged_ids & evading)
    fp = len(flagged_ids - evading)
    fn = len(evading - flagged_ids)
    return TwoPhaseResult(
        msg_result=result,
        verdicts=verdicts,
        transactions_examined=len(examined),
        transactions_total=len(book),
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
    )
