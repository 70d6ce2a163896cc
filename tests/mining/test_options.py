"""Unit tests for the detect() configuration surface: engine and trace."""

import inspect

import pytest

from repro.detectors.iat import IATConfig
from repro.errors import MiningError
from repro.mining.detector import detect
from repro.mining.options import Engine
from repro.obs.tracing import NULL_TRACER, Tracer, resolve_tracer


class TestEngine:
    def test_is_a_string(self):
        assert Engine.PARALLEL == "parallel"
        assert str(Engine.PARALLEL) == "parallel"
        assert f"{Engine.FAITHFUL}" == "faithful"

    def test_coerce_accepts_names_and_members(self):
        assert Engine.coerce("parallel") is Engine.PARALLEL
        assert Engine.coerce(Engine.FAITHFUL) is Engine.FAITHFUL

    def test_coerce_rejects_typos_with_choices(self):
        with pytest.raises(MiningError, match="unknown engine 'fastt'"):
            Engine.coerce("fastt")
        with pytest.raises(MiningError, match="choices: faithful, parallel"):
            Engine.coerce("nope")

    @pytest.mark.parametrize("removed", ["fast", "csr", "incremental"])
    def test_removed_engines_are_rejected(self, removed):
        assert [engine.value for engine in Engine] == ["faithful", "parallel"]
        choices = rf"unknown engine '{removed}' \(choices: faithful, parallel\)"
        with pytest.raises(MiningError, match=choices):
            Engine.coerce(removed)
        with pytest.raises(MiningError, match=choices):
            IATConfig(engine=removed)


class TestDetect:
    def test_defaults(self, fig8):
        result = detect(fig8)
        assert result.engine == "faithful"
        assert result.trace is None

    def test_signature_is_engine_and_trace(self):
        params = inspect.signature(detect).parameters
        assert list(params) == ["tpiin", "engine", "trace"]
        assert params["engine"].kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize(
        "removed",
        [
            "processes",
            "min_pool_work",
            "skip_trivial_subtpiins",
            "collect_groups",
            "options",
            "max_trails_per_subtpiin",
            "detectors",
        ],
    )
    def test_removed_knobs_are_rejected(self, fig8, removed):
        with pytest.raises(TypeError):
            detect(fig8, **{removed: 1})
        assert list(IATConfig.__dataclass_fields__) == ["engine"]
        with pytest.raises(TypeError):
            IATConfig(**{removed: 1})

    def test_engine_coerced_on_construction(self, fig8):
        assert detect(fig8, engine="parallel").engine == "parallel"
        with pytest.raises(MiningError, match="unknown engine 'warp'"):
            detect(fig8, engine="warp")


class TestResolveTracer:
    def test_false_and_none_are_null(self):
        assert resolve_tracer(False) is NULL_TRACER
        assert resolve_tracer(None) is NULL_TRACER

    def test_true_is_a_fresh_tracer(self):
        first = resolve_tracer(True)
        second = resolve_tracer(True)
        assert isinstance(first, Tracer)
        assert first is not second
        assert first.enabled

    def test_caller_owned_tracer_passes_through(self):
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
