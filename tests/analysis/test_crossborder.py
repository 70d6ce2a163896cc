"""Unit tests for cross-border IAT screening."""

import pytest

from repro.analysis.crossborder import screen_cross_border
from repro.mining.detector import DetectionResult, detect
from repro.mining.groups import SuspiciousGroup
from repro.model.entities import Company, EntityRegistry


def registry_with(regions: dict[str, str]) -> EntityRegistry:
    registry = EntityRegistry()
    for company_id, region in regions.items():
        registry.add_company(Company(company_id=company_id, region=region))
    return registry


def result_with_arcs(arcs) -> DetectionResult:
    groups = [
        SuspiciousGroup(trading_trail=("root", seller, buyer), support_trail=("root", buyer))
        for seller, buyer in arcs
    ]
    return DetectionResult(
        groups=groups,
        total_trading_arcs=len(arcs),
        cross_component_trades=0,
        subtpiin_count=1,
        engine="test",
    )


class TestScreen:
    def test_split_by_region(self):
        registry = registry_with(
            {"A": "domestic", "B": "hongkong", "C": "domestic"}
        )
        result = result_with_arcs([("A", "B"), ("A", "C")])
        screen = screen_cross_border(result, registry)
        assert screen.cross_border_arcs == [("A", "B")]
        assert screen.domestic_arcs == [("A", "C")]
        assert screen.cross_border_share == pytest.approx(0.5)
        assert screen.corridor_counts[("domestic", "hongkong")] == 1

    def test_unknown_endpoints_not_misclassified(self):
        registry = registry_with({"A": "domestic"})
        result = result_with_arcs([("A", "scs:X+Y")])
        screen = screen_cross_border(result, registry)
        assert screen.unknown_region_arcs == [("A", "scs:X+Y")]
        assert screen.cross_border_share == 0.0

    def test_render(self):
        registry = registry_with({"A": "domestic", "B": "usa"})
        screen = screen_cross_border(result_with_arcs([("A", "B")]), registry)
        text = screen.render()
        assert "cross-border: 1" in text
        assert "domestic -> usa" in text

    def test_empty_result(self):
        screen = screen_cross_border(result_with_arcs([]), registry_with({}))
        assert screen.cross_border_share == 0.0

    def test_small_province_screen(self, small_province, small_province_tpiin):
        result = detect(small_province_tpiin, engine="parallel")
        screen = screen_cross_border(result, small_province.registry)
        classified = (
            len(screen.cross_border_arcs)
            + len(screen.domestic_arcs)
            + len(screen.unknown_region_arcs)
        )
        assert classified == result.suspicious_arc_count
