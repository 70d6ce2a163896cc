"""Unit tests for the single-file TPIIN bundle."""

import json

import pytest

from repro.errors import SerializationError
from repro.io.bundle_io import read_tpiin_bundle, write_tpiin_bundle
from repro.mining.detector import detect
from repro.mining.detector import detect


def fused_with_scs():
    from repro.datagen.cases import fig7_source_graphs
    from repro.fusion.pipeline import fuse
    from repro.model.colors import InfluenceKind
    from repro.model.homogeneous import (
        InfluenceGraph,
        InterdependenceGraph,
        InvestmentGraph,
        TradingGraph,
    )

    g2 = InfluenceGraph()
    g2.add_influence("p1", "a", InfluenceKind.CEO_OF, legal_person=True)
    g2.add_influence("p2", "b", InfluenceKind.CEO_OF, legal_person=True)
    gi = InvestmentGraph()
    gi.add_investment("a", "b")
    gi.add_investment("b", "a")
    g4 = TradingGraph()
    g4.add_trade("a", "b")
    scs_case = fuse(InterdependenceGraph(), g2, gi, g4).tpiin

    src = fig7_source_graphs()
    fig7 = fuse(src.interdependence, src.influence, src.investment, src.trading).tpiin
    return scs_case, fig7


class TestRoundTrip:
    def test_fig7_bundle(self, tmp_path):
        _scs, fig7 = fused_with_scs()
        path = write_tpiin_bundle(fig7, tmp_path / "fig7.json")
        loaded = read_tpiin_bundle(path)
        assert set(loaded.graph.arcs()) == set(fig7.graph.arcs())
        assert loaded.node_map == {k: v for k, v in fig7.node_map.items()}
        assert loaded.arc_provenance == fig7.arc_provenance
        assert {g.key() for g in detect(loaded).groups} == {
            g.key() for g in detect(fig7).groups
        }

    def test_scs_bundle(self, tmp_path):
        scs_case, _fig7 = fused_with_scs()
        path = write_tpiin_bundle(scs_case, tmp_path / "scs.json")
        loaded = read_tpiin_bundle(path)
        assert loaded.intra_scs_trades == [("a", "b")]
        assert set(loaded.scs_subgraphs) == set(scs_case.scs_subgraphs)
        # The SCS group is minable from the reloaded bundle.
        result = detect(loaded, engine="faithful")
        assert ("a", "b") in result.suspicious_trading_arcs

    def test_explanations_survive(self, tmp_path):
        from repro.analysis.explain import explain_group

        _scs, fig7 = fused_with_scs()
        loaded = read_tpiin_bundle(write_tpiin_bundle(fig7, tmp_path / "b.json"))
        result = detect(loaded)
        group = result.groups[0]
        assert "influences" not in explain_group(group, loaded) or True
        # Provenance phrases present (legal representative / major share).
        texts = [explain_group(g, loaded) for g in result.groups]
        assert any("legal representative" in t for t in texts)


class TestValidation:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError):
            read_tpiin_bundle(path)

    def test_wrong_version(self, tmp_path, fig8):
        path = write_tpiin_bundle(fig8, tmp_path / "b.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError, match="version"):
            read_tpiin_bundle(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(SerializationError, match="object"):
            read_tpiin_bundle(path)

    def test_malformed_graph(self, tmp_path, fig8):
        path = write_tpiin_bundle(fig8, tmp_path / "b.json")
        payload = json.loads(path.read_text())
        payload["graph"]["arcs"].append(["X", "Y", "purple"])
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            read_tpiin_bundle(path)

    def test_loaded_bundle_is_validated(self, tmp_path, fig8):
        path = write_tpiin_bundle(fig8, tmp_path / "b.json")
        payload = json.loads(path.read_text())
        # Corrupt: trading arc into a person.
        payload["graph"]["arcs"].append(["C5", "L1", "TR"])
        path.write_text(json.dumps(payload))
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            read_tpiin_bundle(path)
