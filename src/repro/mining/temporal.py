"""Temporal detection: sliding windows over timed trading relationships.

Tax filings carry periods; a trading relationship that existed in 2014
may be gone by 2016, and an IAT investigation is usually scoped to a
filing window.  Building on the arc-decomposability that powers
:mod:`repro.mining.incremental`, this module slides a window over a set
of *timed* trades and emits one detection result per window, paying
only for the arcs that enter or leave between consecutive windows.

Times are opaque integers (days, months, filing periods — the caller
chooses the unit).  A trade is active in window ``[ws, we)`` when its
validity interval ``[effective_from, effective_to)`` intersects it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.mining.detector import DetectionResult
from repro.mining.incremental import IncrementalDetector

__all__ = ["TimedTrade", "WindowResult", "sliding_window_detect", "active_in"]


@dataclass(frozen=True, slots=True)
class TimedTrade:
    """One trading relationship with a validity interval.

    ``effective_to=None`` means still in force (open-ended).  Intervals
    are half-open: ``[effective_from, effective_to)``.
    """

    seller: Node
    buyer: Node
    effective_from: int
    effective_to: int | None = None

    def __post_init__(self) -> None:
        if self.effective_to is not None and self.effective_to <= self.effective_from:
            raise MiningError(
                f"trade {self.seller!r}->{self.buyer!r}: empty validity "
                f"interval [{self.effective_from}, {self.effective_to})"
            )

    @property
    def arc(self) -> tuple[Node, Node]:
        return (self.seller, self.buyer)

    def overlaps(self, window_start: int, window_end: int) -> bool:
        if window_end <= self.effective_from:
            return False
        return self.effective_to is None or self.effective_to > window_start


def active_in(
    trades: Iterable[TimedTrade], window_start: int, window_end: int
) -> set[tuple[Node, Node]]:
    """Distinct arcs active anywhere inside ``[window_start, window_end)``."""
    return {t.arc for t in trades if t.overlaps(window_start, window_end)}


@dataclass(slots=True)
class WindowResult:
    """Detection outcome for one window position."""

    window_start: int
    window_end: int
    result: DetectionResult
    new_suspicious: set[tuple[Node, Node]]
    resolved_suspicious: set[tuple[Node, Node]]

    @property
    def suspicious_arcs(self) -> set[tuple[Node, Node]]:
        return self.result.suspicious_trading_arcs


def sliding_window_detect(
    antecedent: TPIIN,
    trades: Iterable[TimedTrade],
    *,
    window: int,
    step: int | None = None,
    start: int | None = None,
    end: int | None = None,
) -> Iterator[WindowResult]:
    """Slide a ``window``-wide detection over the timed ``trades``.

    ``antecedent`` supplies the (static) influence structure; any
    trading arcs already on it are rejected — temporal mode owns the
    trading side.  ``step`` defaults to ``window`` (tumbling windows);
    ``start``/``end`` default to the data's extent.  Yields one
    :class:`WindowResult` per position, with the deltas against the
    previous window for alerting.
    """
    if window <= 0:
        raise MiningError("window must be positive")
    step = window if step is None else step
    if step <= 0:
        raise MiningError("step must be positive")
    if any(True for _ in antecedent.trading_arcs()):
        raise MiningError(
            "temporal detection expects an antecedent-only TPIIN; strip "
            "its trading arcs first"
        )

    trades = list(trades)
    if not trades:
        return
    if start is None:
        start = min(t.effective_from for t in trades)
    if end is None:
        horizon = [
            t.effective_to for t in trades if t.effective_to is not None
        ]
        end = max(
            max(horizon, default=start),
            max(t.effective_from for t in trades) + 1,
        )

    detector = IncrementalDetector(antecedent)
    refcount: Counter[tuple[Node, Node]] = Counter()
    previous_suspicious: set[tuple[Node, Node]] = set()

    position = start
    while position < end:
        window_end = position + window
        wanted: Counter[tuple[Node, Node]] = Counter(
            t.arc for t in trades if t.overlaps(position, window_end)
        )
        # Apply deltas against the currently loaded arc multiset.
        for arc in list(refcount):
            if arc not in wanted:
                del refcount[arc]
                detector.remove_trading_arc(*arc)
        for arc, count in wanted.items():
            if arc not in refcount:
                detector.add_trading_arc(*arc)
            refcount[arc] = count

        result = detector.result()
        suspicious = set(result.suspicious_trading_arcs)
        yield WindowResult(
            window_start=position,
            window_end=window_end,
            result=result,
            new_suspicious=suspicious - previous_suspicious,
            resolved_suspicious=previous_suspicious - suspicious,
        )
        previous_suspicious = suspicious
        position += step
