"""Unit tests for sliding-window temporal detection."""

import pytest

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.mining.temporal import (
    TimedTrade,
    active_in,
    sliding_window_detect,
)
from repro.model.colors import EColor


def antecedent(fig8) -> TPIIN:
    return TPIIN(graph=fig8.antecedent_graph())


def fig8_timed_trades() -> list[TimedTrade]:
    """Fig. 8's five trades spread over periods 0..30."""
    return [
        TimedTrade("C3", "C5", 0, 10),
        TimedTrade("C5", "C6", 5, 20),
        TimedTrade("C5", "C7", 0, None),  # open-ended
        TimedTrade("C7", "C8", 15, 25),
        TimedTrade("C8", "C4", 20, 30),
    ]


class TestTimedTrade:
    def test_overlap_semantics(self):
        trade = TimedTrade("a", "b", 5, 10)
        assert trade.overlaps(0, 6)
        assert trade.overlaps(9, 20)
        assert not trade.overlaps(0, 5)  # half-open: ends before start
        assert not trade.overlaps(10, 20)

    def test_open_ended(self):
        trade = TimedTrade("a", "b", 5, None)
        assert trade.overlaps(100, 200)
        assert not trade.overlaps(0, 5)

    def test_empty_interval_rejected(self):
        with pytest.raises(MiningError, match="empty validity"):
            TimedTrade("a", "b", 5, 5)

    def test_active_in(self):
        trades = fig8_timed_trades()
        assert active_in(trades, 0, 5) == {("C3", "C5"), ("C5", "C7")}
        assert ("C8", "C4") in active_in(trades, 20, 25)


class TestSlidingWindows:
    def test_each_window_matches_batch(self, fig8):
        trades = fig8_timed_trades()
        for window_result in sliding_window_detect(
            antecedent(fig8), trades, window=10, step=5
        ):
            expected_tpiin = TPIIN(graph=fig8.antecedent_graph())
            for arc in active_in(
                trades, window_result.window_start, window_result.window_end
            ):
                expected_tpiin.graph.add_arc(*arc, EColor.TRADING)
            batch = detect(expected_tpiin, engine="faithful")
            assert (
                window_result.suspicious_arcs == batch.suspicious_trading_arcs
            ), f"window {window_result.window_start}"
            assert {g.key() for g in window_result.result.groups} == {
                g.key() for g in batch.groups
            }

    def test_alert_deltas(self, fig8):
        trades = fig8_timed_trades()
        windows = list(
            sliding_window_detect(antecedent(fig8), trades, window=10, step=10)
        )
        # Window [0,10): C3->C5 suspicious.  Window [10,20): C5->C6 only
        # until 20... C5->C6 active (5..20 overlaps), C7->C8 active.
        first = windows[0]
        assert first.new_suspicious == {("C3", "C5"), ("C5", "C6")}
        second = windows[1]
        assert ("C3", "C5") in second.resolved_suspicious

    def test_tumbling_default_step(self, fig8):
        windows = list(
            sliding_window_detect(antecedent(fig8), fig8_timed_trades(), window=10)
        )
        starts = [w.window_start for w in windows]
        assert starts == [0, 10, 20]

    def test_duplicate_trades_refcounted(self, fig8):
        # Two filings for the same arc with staggered periods: the arc
        # stays active until both expire.
        trades = [
            TimedTrade("C3", "C5", 0, 10),
            TimedTrade("C3", "C5", 5, 15),
        ]
        windows = list(
            sliding_window_detect(antecedent(fig8), trades, window=5, step=5)
        )
        assert [(w.window_start, ("C3", "C5") in w.suspicious_arcs) for w in windows] == [
            (0, True),
            (5, True),
            (10, True),
        ]

    def test_empty_trades(self, fig8):
        assert list(
            sliding_window_detect(antecedent(fig8), [], window=5)
        ) == []

    def test_requires_antecedent_only(self, fig8):
        with pytest.raises(MiningError, match="antecedent-only"):
            list(sliding_window_detect(fig8, fig8_timed_trades(), window=5))

    def test_invalid_window(self, fig8):
        with pytest.raises(MiningError, match="window"):
            list(
                sliding_window_detect(
                    antecedent(fig8), fig8_timed_trades(), window=0
                )
            )

    def test_explicit_range(self, fig8):
        windows = list(
            sliding_window_detect(
                antecedent(fig8),
                fig8_timed_trades(),
                window=5,
                start=20,
                end=30,
            )
        )
        assert [w.window_start for w in windows] == [20, 25]
        assert all(("C3", "C5") not in w.suspicious_arcs for w in windows)
