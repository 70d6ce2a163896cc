"""Unit tests for distributional statistics."""

import pytest

from repro.analysis.distributions import compute_distributions
from repro.mining.detector import detect
from repro.mining.groups import GroupKind


class TestDistributionsFig8:
    @pytest.fixture()
    def dist(self, fig8):
        return compute_distributions(detect(fig8))

    def test_group_sizes(self, dist):
        # (L1,C1,C2,C3,C5) size 5; (B1,C5,C6) and (B2,C7,C8) size 3.
        assert dist.group_size_histogram == {5: 1, 3: 2}
        assert dist.max_group_size == 5
        assert dist.mean_group_size == pytest.approx(11 / 3)

    def test_trail_lengths(self, dist):
        # Trading trails of lengths 4, 3, 3; support trails 3, 2, 2.
        assert dist.trail_length_histogram == {4: 1, 3: 3, 2: 2}

    def test_groups_per_arc(self, dist):
        assert dist.groups_per_arc_histogram == {1: 3}
        assert dist.mean_groups_per_suspicious_arc == 1.0

    def test_kinds_and_tops(self, dist):
        assert dist.kind_counts == {GroupKind.MATCHED: 3}
        antecedents = dict(dist.top_antecedents)
        assert antecedents == {"L1": 1, "B1": 1, "B2": 1}
        assert len(dist.top_arcs) == 3

    def test_render(self, dist):
        text = dist.render()
        assert "mean size" in text
        assert "busiest antecedents" in text


class TestDistributionsEdge:
    def test_empty_result(self, fig8):
        from repro.mining.detector import DetectionResult

        empty = DetectionResult(
            groups=[],
            total_trading_arcs=0,
            cross_component_trades=0,
            subtpiin_count=0,
            engine="x",
        )
        dist = compute_distributions(empty)
        assert dist.mean_group_size == 0.0
        assert dist.mean_groups_per_suspicious_arc == 0.0
        assert "groups: 0" in dist.render()

    def test_small_province_consistency(self, small_province_tpiin):
        from repro.mining.detector import detect

        result = detect(small_province_tpiin, engine="parallel")
        dist = compute_distributions(result)
        assert sum(dist.group_size_histogram.values()) == result.group_count
        assert dist.mean_groups_per_suspicious_arc == pytest.approx(
            result.group_count / result.suspicious_arc_count
        )
