"""Ground-truth scoring of detector findings against planted cases.

The planted-case generators (:mod:`repro.datagen.planted`) know exactly
which member sets a detector should recover; :func:`accuracy` turns a
findings list plus those expected sets into precision/recall, the
acceptance metric of ``test_planted_accuracy.py`` (>= 0.9 on every
planted scenario).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.detectors.base import Finding


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Precision/recall of a findings list against planted cases."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float

    def summary(self) -> str:
        return (
            f"precision={self.precision:.3f} recall={self.recall:.3f} "
            f"(tp={self.true_positives} fp={self.false_positives} "
            f"fn={self.false_negatives})"
        )


def accuracy(
    expected: Sequence[frozenset[str] | set[str]], findings: Iterable[Finding]
) -> AccuracyReport:
    """Score ``findings`` against the ``expected`` planted member sets.

    A finding matches a planted case when the case's members are a
    subset of the finding's: a detector may legitimately pull extra
    context nodes such as counterparties into a finding.  Precision is
    the fraction of findings that match some case (vacuously 1.0 with
    no findings); recall is the fraction of cases recovered by some
    finding.
    """
    cases = [frozenset(str(member) for member in case) for case in expected]
    matched_cases: set[int] = set()
    true_positives = 0
    false_positives = 0
    for finding in findings:
        members = frozenset(str(member) for member in finding.member_set)
        hits = {index for index, case in enumerate(cases) if case <= members}
        matched_cases |= hits
        if hits:
            true_positives += 1
        else:
            false_positives += 1
    found = true_positives + false_positives
    return AccuracyReport(
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=len(cases) - len(matched_cases),
        precision=true_positives / found if found else 1.0,
        recall=len(matched_cases) / len(cases) if cases else 1.0,
    )
