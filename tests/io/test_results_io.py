"""Unit tests for result persistence (sus files and JSON)."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import SerializationError
from repro.fusion.pipeline import fuse
from repro.fusion.tpiin import TPIIN
from repro.io.results_io import (
    detection_to_dict,
    group_from_dict,
    group_to_dict,
    read_detection_json,
    write_detection_json,
    write_sus_files,
)
from repro.mining.detector import DetectionResult, detect
from repro.mining.incremental import IncrementalDetector
from repro.mining.groups import GroupKind, SuspiciousGroup
from repro.model.colors import InfluenceKind
from repro.model.homogeneous import (
    InfluenceGraph,
    InterdependenceGraph,
    InvestmentGraph,
    TradingGraph,
)


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


def syndicate_tpiin() -> TPIIN:
    """Companies a and b form one syndicate that invests in c, and the
    syndicate trades inside itself and with c: SCS and matched groups."""
    g2 = InfluenceGraph()
    for person, company in (("p1", "a"), ("p2", "b"), ("p3", "c")):
        g2.add_influence(person, company, InfluenceKind.CEO_OF, legal_person=True)
    gi = InvestmentGraph()
    for seller, buyer in (("a", "b"), ("b", "a"), ("a", "c")):
        gi.add_investment(seller, buyer)
    g4 = TradingGraph()
    for seller, buyer in (("a", "b"), ("a", "c"), ("c", "b")):
        g4.add_trade(seller, buyer)
    return fuse(InterdependenceGraph(), g2, gi, g4).tpiin


def escaping_tpiin() -> TPIIN:
    """Node labels JSON must escape: non-ASCII, a quote, a backslash, a
    control character, and a non-``str`` node id."""
    quote, slash, han, number, tab = 'a"b', "c\\d", "\u4e2d\u6587", 7, "x\t"
    return TPIIN.build(
        persons=["p\u00e9"],
        companies=[quote, slash, han, number, tab],
        influence=[
            ("p\u00e9", quote),
            ("p\u00e9", slash),
            (quote, han),
            (slash, number),
            (number, tab),
            (han, tab),
        ],
        trading=[(han, number), (quote, slash), (tab, slash)],
    )


def assert_byte_identical(result: DetectionResult, directory: Path) -> None:
    """The streamed files equal the dict form's encoding and the groups'
    own renderings, and the JSON reads back to the same result."""
    paths = write_sus_files(result, directory)
    json_path = write_detection_json(result, directory / "detection.json")
    assert json_path.read_bytes() == json.dumps(
        detection_to_dict(result), indent=2
    ).encode()
    if result.sub_results:
        expected = {
            str(sub.index): list(sub.groups) for sub in result.sub_results if sub.groups
        }
        scs = [g for g in result.groups if g.kind is GroupKind.SCS]
        if scs:
            expected["scs"] = scs
    else:
        expected = {"all": list(result.groups)}
    assert {p.name for p in paths} == {
        f"sus{kind}({index}).txt" for index in expected for kind in ("Group", "Trade")
    }
    for index, groups in expected.items():
        text = (directory / f"susGroup({index}).txt").read_text()
        assert text == "".join(g.render() + "\n" for g in groups)
        arcs = sorted({g.trading_arc for g in groups}, key=lambda a: (str(a[0]), str(a[1])))
        trades = (directory / f"susTrade({index}).txt").read_text()
        assert trades == "".join(f"{a} -> {b}\n" for a, b in arcs)
    loaded = read_detection_json(json_path)
    assert [g.key() for g in loaded["groups"]] == [
        tuple(tuple(str(n) for n in trail) for trail in g.key()) for g in result.groups
    ]
    assert loaded["suspicious_trading_arcs"] == {
        (str(a), str(b)) for a, b in result.suspicious_trading_arcs
    }
    assert loaded["simple_group_count"] == result.simple_group_count
    assert loaded["total_trading_arcs"] == result.total_trading_arcs


class TestStreamedBytes:
    @pytest.mark.parametrize("engine", ["faithful", "parallel"])
    @pytest.mark.parametrize(
        "fixture", ["fig6", "fig8", "case1", "case2", "case3", "small_province_tpiin"]
    )
    def test_engine_results(self, request, tmp_path, fixture, engine):
        # A fresh parallel result: the writers are its first group pass.
        result = detect(request.getfixturevalue(fixture), engine=engine)
        assert_byte_identical(result, tmp_path)

    def test_streamed_result(self, small_province_tpiin, tmp_path):
        detector = IncrementalDetector(small_province_tpiin)
        result = detector.result()
        assert not result.sub_results and result.groups
        assert_byte_identical(result, tmp_path)

    def test_empty_result(self, tmp_path):
        result = DetectionResult(
            groups=[],
            total_trading_arcs=0,
            cross_component_trades=0,
            subtpiin_count=0,
            engine="faithful",
        )
        assert_byte_identical(result, tmp_path)
        text = (tmp_path / "detection.json").read_text()
        assert '"suspicious_trading_arcs": [],' in text
        assert text.endswith('"groups": []\n}')

    @pytest.mark.parametrize("engine", ["faithful", "parallel"])
    def test_scs_and_circle_groups(self, tmp_path, engine):
        result = detect(syndicate_tpiin(), engine=engine)
        assert result.kind_counts()[GroupKind.SCS] == 1
        assert_byte_identical(result, tmp_path / "scs")
        assert (tmp_path / "scs" / "susGroup(scs).txt").exists()
        circle = detect(escaping_tpiin(), engine=engine)
        assert circle.kind_counts()[GroupKind.CIRCLE] == 1
        assert_byte_identical(circle, tmp_path / "circle")

    @pytest.mark.parametrize("engine", ["faithful", "parallel"])
    def test_labels_that_need_escapes(self, tmp_path, engine):
        result = detect(escaping_tpiin(), engine=engine)
        assert result.group_count == 4
        assert_byte_identical(result, tmp_path)
        text = (tmp_path / "detection.json").read_text()
        assert text.isascii()
        assert '"a\\"b"' in text and '"c\\\\d"' in text and '"7"' in text
        assert '"\\u4e2d\\u6587"' in text and '"x\\t"' in text


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=299),
    companies=st.sampled_from([60, 64, 72, 80, 90]),
    syndicates=st.integers(min_value=0, max_value=3),
    p_trade=st.sampled_from([0.01, 0.03, 0.06]),
    engine=st.sampled_from(["faithful", "parallel", "streamed"]),
)
def test_streamed_files_match_the_dict_encoding(seed, companies, syndicates, p_trade, engine):
    config = dataclasses.replace(
        ProvinceConfig.small(companies=companies, seed=seed),
        mutual_investment_pairs=syndicates,
    )
    dataset = generate_province(config)
    tpiin = fuse(
        dataset.interdependence,
        dataset.influence,
        dataset.investment,
        dataset.trading_graph(p_trade),
        registry=dataset.registry,
    ).tpiin
    if engine == "streamed":
        result = IncrementalDetector(tpiin).result()
    else:
        result = detect(tpiin, engine=engine)
    with tempfile.TemporaryDirectory() as directory:
        assert_byte_identical(result, Path(directory))
