"""Property: tracing is observational — it never changes detection.

For every engine, running with ``trace=True`` (or a caller-owned
tracer) must produce the same group set and suspicious arcs as the
untraced run, and the collected span tree must actually describe the
run (a ``detect`` root whose attributes name the engine).
"""

from hypothesis import given, settings

from repro.mining.detector import detect
from repro.mining.options import Engine
from repro.obs.tracing import Tracer

from .strategies import tpiins

#: Every engine.
_ENGINES = tuple(Engine)


def _key_set(result):
    return {g.key() for g in result.groups}


@settings(max_examples=60, deadline=None)
@given(tpiin=tpiins())
def test_traced_equals_untraced_for_every_engine(tpiin):
    for engine in _ENGINES:
        plain = detect(tpiin, engine=engine)
        traced = detect(tpiin, engine=engine, trace=True)
        assert _key_set(plain) == _key_set(traced), engine.value
        assert (
            plain.suspicious_trading_arcs == traced.suspicious_trading_arcs
        ), engine.value
        assert plain.trace is None
        assert traced.trace is not None
        assert traced.trace.name == "detect"
        assert traced.trace.attributes["engine"] == engine.value


@settings(max_examples=40, deadline=None)
@given(tpiin=tpiins())
def test_caller_owned_tracer_nests_the_run(tpiin):
    tracer = Tracer()
    with tracer.span("audit"):
        result = detect(tpiin, engine=Engine.INCREMENTAL, trace=tracer)
    root = tracer.root
    assert root.name == "audit"
    assert [child.name for child in root.children] == ["detect"]
    assert result.trace is root.children[0]
    assert _key_set(result) == _key_set(detect(tpiin, engine=Engine.INCREMENTAL))
