"""Integration: the production deployment flow, end to end.

Mimics how a provincial office would actually run the system:

1. nightly: ingest registry extracts (CSV), fuse, persist the TPIIN
   bundle;
2. daytime: load the bundle in a monitoring process, stream incoming
   trading filings through the incremental detector, explain alerts;
3. quarterly: temporal windows over the filing history, a markdown
   audit report, and sampled share estimation for the dashboard.
"""

import pytest

from repro.analysis.audit_report import build_audit_report
from repro.analysis.explain import explain_arc
from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.datagen.rng import derive_rng
from repro.io.bundle_io import read_tpiin_bundle, write_tpiin_bundle
from repro.io.registry_io import load_registry_csvs, write_registry_csvs
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.mining.sampling import estimate_suspicious_share
from repro.mining.temporal import TimedTrade, sliding_window_detect


@pytest.fixture(scope="module")
def office(tmp_path_factory):
    """Simulated office state: registry dir + fused bundle path."""
    root = tmp_path_factory.mktemp("office")
    dataset = generate_province(ProvinceConfig.small(companies=120, seed=29))
    registry_dir = write_registry_csvs(dataset, root / "registry")
    bundle = load_registry_csvs(registry_dir)
    tpiin = bundle.fuse().tpiin
    bundle_path = write_tpiin_bundle(tpiin, root / "tpiin.json")
    return dataset, bundle_path


class TestProductionFlow:
    def test_nightly_ingest_and_bundle(self, office):
        dataset, bundle_path = office
        loaded = read_tpiin_bundle(bundle_path)
        assert loaded.graph.number_of_nodes() > dataset.config.companies

    def test_daytime_streaming_with_explanations(self, office):
        dataset, bundle_path = office
        tpiin = read_tpiin_bundle(bundle_path)
        monitor = IncrementalDetector(tpiin)
        feed = [
            (s, b)
            for s, b, _c in dataset.trading_graph(0.03).arcs()
        ]
        alerts = []
        for seller, buyer in feed:
            update = monitor.add_trading_arc(seller, buyer)
            if update.suspicious:
                alerts.append(update)
        assert alerts
        result = monitor.result()
        narrative = explain_arc(alerts[0].arc, result, tpiin)
        assert "proof chain" in narrative
        # The streamed state equals batch detection over the same feed.
        batch_tpiin = dataset.overlay_trading(
            dataset.antecedent_tpiin(), 0.03
        )
        batch = detect(batch_tpiin, engine="faithful")
        assert monitor.suspicious_arcs == batch.suspicious_trading_arcs

    def test_quarterly_reporting(self, office):
        dataset, bundle_path = office
        tpiin = read_tpiin_bundle(bundle_path)
        rng = derive_rng(29, "filings")
        trades = []
        for s, b, _c in dataset.trading_graph(0.03).arcs():
            start = int(rng.integers(0, 12))
            trades.append(TimedTrade(s, b, start, start + int(rng.integers(2, 8))))
        windows = list(
            sliding_window_detect(tpiin, trades, window=3, start=0, end=12)
        )
        assert len(windows) == 4
        assert any(w.suspicious_arcs for w in windows)

        full = dataset.overlay_trading(dataset.antecedent_tpiin(), 0.03)
        result = detect(full, engine="parallel")
        report = build_audit_report(full, result, title="Quarterly audit")
        assert "Quarterly audit" in report
        estimate = estimate_suspicious_share(full, sample_size=200, seed=3)
        assert estimate.low <= result.suspicious_arc_share <= estimate.high
