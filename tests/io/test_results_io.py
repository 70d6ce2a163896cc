"""Unit tests for result persistence (sus files and JSON)."""

import json

import pytest

from repro.errors import SerializationError
from repro.io.results_io import (
    group_from_dict,
    group_to_dict,
    read_detection_json,
    write_detection_json,
)
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.mining.groups import GroupKind, SuspiciousGroup


class TestGroupPayloads:
    def test_roundtrip(self):
        group = SuspiciousGroup(
            trading_trail=("a", "x", "t"), support_trail=("a", "t")
        )
        assert group_from_dict(group_to_dict(group)) == group

    def test_circle_roundtrip(self):
        group = SuspiciousGroup(
            trading_trail=("c", "d", "c"),
            support_trail=("c",),
            kind=GroupKind.CIRCLE,
        )
        assert group_from_dict(group_to_dict(group)) == group

    def test_malformed_payload(self):
        with pytest.raises(SerializationError):
            group_from_dict({"trading_trail": ["a", "b"]})
        with pytest.raises(SerializationError):
            group_from_dict(
                {
                    "trading_trail": ["a", "b"],
                    "support_trail": ["a", "b"],
                    "kind": "wormhole",
                }
            )

    def test_payload_breaking_group_invariants(self):
        # Well-typed but not a group: the model's MiningError must not
        # escape the reader.
        with pytest.raises(SerializationError):
            group_from_dict(
                {"trading_trail": [], "support_trail": [], "kind": "matched"}
            )

    @pytest.mark.parametrize(
        "trails",
        [
            (["a", 1, "t"], ["a", "t"]),
            (["a", "x", "t"], [None, "t"]),
            ("axt", ["a", "t"]),
        ],
    )
    def test_trail_items_must_be_strings(self, trails):
        trading, support = trails
        with pytest.raises(SerializationError):
            group_from_dict(
                {"trading_trail": trading, "support_trail": support, "kind": "matched"}
            )


class TestDetectionJson:
    def test_roundtrip(self, fig8, tmp_path):
        result = detect(fig8)
        path = write_detection_json(result, tmp_path / "out.json")
        loaded = read_detection_json(path)
        assert loaded["engine"] == "faithful"
        assert loaded["simple_group_count"] == 3
        assert {g.key() for g in loaded["groups"]} == {
            g.key() for g in result.groups
        }
        assert loaded["suspicious_trading_arcs"] == {
            (str(a), str(b)) for a, b in result.suspicious_trading_arcs
        }

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError):
            read_detection_json(path)

    @pytest.mark.parametrize(
        "arc", ["AB", ["A"], ["A", "B", "C"], ["A", 2], {"A": "B"}, None]
    )
    def test_malformed_arc_entry(self, fig8, tmp_path, arc):
        path = write_detection_json(detect(fig8), tmp_path / "out.json")
        payload = json.loads(path.read_text())
        payload["suspicious_trading_arcs"].append(arc)
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError, match="two strings"):
            read_detection_json(path)

    def test_count_only_result_serializes(self, fig8, tmp_path):
        result = IncrementalDetector(fig8).result()
        path = write_detection_json(result, tmp_path / "counts.json")
        payload = json.loads(path.read_text())
        assert len(payload["groups"]) == result.group_count
        assert payload["simple_group_count"] == 3


class TestSusFiles:
    def test_faithful_writes_per_subtpiin(self, fig8, tmp_path):
        result = detect(fig8)
        paths = result.write_files(tmp_path)
        names = {p.name for p in paths}
        assert names == {"susGroup(0).txt", "susTrade(0).txt"}

    def test_incremental_writes_aggregate(self, fig8, tmp_path):
        result = IncrementalDetector(fig8).result()
        paths = result.write_files(tmp_path)
        names = {p.name for p in paths}
        assert names == {"susGroup(all).txt", "susTrade(all).txt"}
        group_lines = (tmp_path / "susGroup(all).txt").read_text().splitlines()
        assert len(group_lines) == 3

    def test_trade_file_sorted_unique(self, fig8, tmp_path):
        result = detect(fig8)
        result.write_files(tmp_path)
        lines = (tmp_path / "susTrade(0).txt").read_text().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines)) == 3
