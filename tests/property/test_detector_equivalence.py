"""Property: the plugin-path IAT detector is the legacy ``detect()``.

The detector framework must be a pure re-packaging of the paper's
miner: for every engine, running ``iat-groups`` through the plugin
protocol (directly or via :func:`run_detectors`) yields the same group
set, the same suspicious-arc set, and findings that enumerate exactly
those arcs.  The streaming detector, seeded with the same arcs, finds
them too.
"""

from hypothesis import given, settings

from repro.detectors import DetectionContext, IATConfig, IATGroupDetector, run_detectors
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.mining.options import Engine

from .strategies import tpiins

ENGINES = tuple(engine.value for engine in Engine)


@settings(max_examples=40, deadline=None)
@given(tpiin=tpiins())
def test_plugin_path_equals_legacy_detect_on_every_engine(tpiin):
    assert set(ENGINES) == {"faithful", "parallel"}
    for engine in ENGINES:
        legacy = detect(tpiin, engine=engine)
        outcome = IATGroupDetector(IATConfig(engine=engine)).run(
            DetectionContext(tpiin=tpiin)
        )
        plugin = outcome.detection
        assert plugin is not None
        assert plugin.suspicious_trading_arcs == legacy.suspicious_trading_arcs
        assert {g.key() for g in plugin.groups} == {g.key() for g in legacy.groups}
        found_arcs = {f.arcs[0] for f in outcome.findings}
        assert found_arcs == legacy.suspicious_trading_arcs
    streamed = IncrementalDetector(tpiin).result()
    assert streamed.suspicious_trading_arcs == found_arcs
    assert {g.key() for g in streamed.groups} == {g.key() for g in plugin.groups}


@settings(max_examples=30, deadline=None)
@given(tpiin=tpiins())
def test_runner_options_path_equals_legacy_detect(tpiin):
    for engine in ENGINES:
        legacy = detect(tpiin, engine=engine)
        report = run_detectors(
            tpiin, "iat-groups", configs={"iat-groups": {"engine": engine}}
        )
        run = report["iat-groups"]
        assert run.detection is not None
        assert run.detection.engine == engine
        assert (
            run.detection.suspicious_trading_arcs
            == legacy.suspicious_trading_arcs
        )
        assert {g.key() for g in run.detection.groups} == {
            g.key() for g in legacy.groups
        }
