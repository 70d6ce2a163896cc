"""Unit tests for generator configuration validation."""

import pytest

from repro.datagen.config import (
    PAPER_TRADING_PROBABILITIES,
    ProvinceConfig,
    TradingConfig,
)
from repro.errors import DataGenError


class TestProvinceConfig:
    def test_paper_scale_defaults(self):
        cfg = ProvinceConfig()
        assert cfg.companies == 2452
        assert cfg.legal_persons == 1350
        assert cfg.directors == 776

    def test_small_helper_scales(self):
        cfg = ProvinceConfig.small(companies=100)
        assert cfg.companies == 100
        assert 0 < cfg.legal_persons <= 100
        assert cfg.directors >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"companies": 0},
            {"legal_persons": 0},
            {"directors": -1},
            {"companies": 10, "directors": 31},
            {"target_suspicious_share": 1.5},
            {"max_cluster_fraction": 0.0},
            {"family_size_range": (0, 2)},
            {"family_size_range": (3, 2)},
            {"director_companies_range": (0, 2)},
            {"family_direct_lp_share": 1.2},
            {"investment_extra_arc_share": 3.0},
            {"dual_holding_attach_both": -0.1},
            {"anchor_base": -1},
            {"anchor_divisor": 0},
            {"director_interlock_probability": 2.0},
            {"mutual_investment_pairs": -2},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(DataGenError):
            ProvinceConfig(**kwargs)

    def test_frozen(self):
        cfg = ProvinceConfig()
        with pytest.raises(AttributeError):
            cfg.companies = 10


class TestTradingConfig:
    def test_probability_bounds(self):
        TradingConfig(probability=0.0)
        TradingConfig(probability=1.0)
        with pytest.raises(DataGenError):
            TradingConfig(probability=1.1)
        with pytest.raises(DataGenError):
            TradingConfig(probability=-0.1)

    def test_paper_probabilities(self):
        assert len(PAPER_TRADING_PROBABILITIES) == 20
        assert PAPER_TRADING_PROBABILITIES[0] == 0.002
        assert PAPER_TRADING_PROBABILITIES[-1] == 0.1
        assert list(PAPER_TRADING_PROBABILITIES) == sorted(
            PAPER_TRADING_PROBABILITIES
        )
