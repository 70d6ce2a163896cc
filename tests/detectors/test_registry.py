"""The static detector table: names, create, info, resolve."""

import pytest

from repro.detectors import (
    DETECTORS,
    IATGroupDetector,
    create_detector,
    detector_info,
    resolve_detectors,
)
from repro.errors import MiningError

BUILTINS = ("circular-trading", "iat-groups", "missing-trader", "shared-household")


class TestBuiltins:
    def test_all_four_builtins_registered(self):
        assert tuple(DETECTORS) == BUILTINS

    def test_info_exposes_schema(self):
        info = detector_info("circular-trading")
        assert info.name == "circular-trading"
        assert info.version == "1.0.0"
        assert set(info.schema) == {"min_cycle_size", "min_balance"}
        assert info.schema["min_cycle_size"]["default"] == 3
        payload = info.to_dict()
        assert payload["name"] == "circular-trading"
        assert "min_balance" in payload["config"]

    def test_table_maps_names_to_classes(self):
        assert DETECTORS["iat-groups"] is IATGroupDetector
        assert all(cls.name == name for name, cls in DETECTORS.items())
        with pytest.raises(TypeError):
            DETECTORS["toy"] = IATGroupDetector  # type: ignore[index]

    def test_create_instantiates_with_default_config(self):
        detector = create_detector("missing-trader")
        assert detector.name == "missing-trader"
        assert detector.config.min_fan_in == 3


class TestResolve:
    def test_all_expands_sorted(self):
        assert resolve_detectors("all") == BUILTINS

    def test_explicit_order_preserved_and_deduped(self):
        resolved = resolve_detectors(["missing-trader", "iat-groups", "missing-trader"])
        assert resolved == ("missing-trader", "iat-groups")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(MiningError, match="choices:"):
            resolve_detectors("nope")

    def test_empty_selection_rejected(self):
        with pytest.raises(MiningError, match="empty"):
            resolve_detectors([])
