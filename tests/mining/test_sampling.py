"""Unit tests for sampled suspicious-share estimation."""

import pytest

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.mining.sampling import estimate_suspicious_share


class TestEstimation:
    def test_full_population_is_exact(self, fig8):
        estimate = estimate_suspicious_share(fig8, sample_size=100)
        exact = detect(fig8, engine="parallel").suspicious_arc_share
        assert estimate.point == pytest.approx(exact)
        assert estimate.sample_size == 5
        assert estimate.low <= estimate.point <= estimate.high

    def test_sampled_interval_covers_truth(self, small_province_tpiin):
        exact = detect(small_province_tpiin, engine="parallel").suspicious_arc_share
        covered = 0
        for seed in range(10):
            estimate = estimate_suspicious_share(
                small_province_tpiin, sample_size=150, seed=seed
            )
            if estimate.low <= exact <= estimate.high:
                covered += 1
        # 95% intervals: allow one miss out of ten.
        assert covered >= 9

    def test_interval_narrows_with_sample_size(self, small_province_tpiin):
        small = estimate_suspicious_share(
            small_province_tpiin, sample_size=50, seed=1
        )
        large = estimate_suspicious_share(
            small_province_tpiin, sample_size=350, seed=1
        )
        assert large.width < small.width

    def test_intra_scs_counted_suspicious(self):
        tpiin = TPIIN.build(companies=["x"])
        tpiin.intra_scs_trades.extend([("a", "b"), ("b", "c")])
        estimate = estimate_suspicious_share(tpiin, sample_size=10)
        assert estimate.point == 1.0

    def test_empty_population(self):
        estimate = estimate_suspicious_share(TPIIN.build(companies=["x"]))
        assert estimate.sample_size == 0
        assert estimate.point == 0.0

    def test_render(self, fig8):
        text = estimate_suspicious_share(fig8, sample_size=10).render()
        assert "confidence" in text and "%" in text

    def test_index_reuse(self, fig8):
        from repro.graph.bitset import RootAncestorIndex
        from repro.model.colors import EColor

        index = RootAncestorIndex(fig8.graph, EColor.INFLUENCE)
        a = estimate_suspicious_share(fig8, sample_size=10, index=index)
        b = estimate_suspicious_share(fig8, sample_size=10)
        assert a.point == b.point

    def test_validation(self, fig8):
        with pytest.raises(MiningError):
            estimate_suspicious_share(fig8, sample_size=0)
        with pytest.raises(MiningError, match="confidence"):
            estimate_suspicious_share(fig8, confidence=0.5)
