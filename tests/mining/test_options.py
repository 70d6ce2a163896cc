"""Unit tests for the consolidated detect() options API."""

import pytest

from repro.errors import MiningError
from repro.mining.options import DetectOptions, Engine
from repro.obs.tracing import NULL_TRACER, Tracer


class TestEngine:
    def test_is_a_string(self):
        assert Engine.PARALLEL == "parallel"
        assert str(Engine.INCREMENTAL) == "incremental"
        assert f"{Engine.FAITHFUL}" == "faithful"

    def test_coerce_accepts_names_and_members(self):
        assert Engine.coerce("parallel") is Engine.PARALLEL
        assert Engine.coerce(Engine.INCREMENTAL) is Engine.INCREMENTAL

    def test_coerce_rejects_typos_with_choices(self):
        with pytest.raises(MiningError, match="unknown engine 'fastt'"):
            Engine.coerce("fastt")
        with pytest.raises(MiningError, match="choices: faithful, parallel"):
            Engine.coerce("nope")

    @pytest.mark.parametrize("removed", ["fast", "csr"])
    def test_removed_engines_are_rejected(self, removed):
        assert [engine.value for engine in Engine] == [
            "faithful",
            "parallel",
            "incremental",
        ]
        with pytest.raises(
            MiningError,
            match=rf"unknown engine '{removed}' \(choices: faithful, parallel, incremental\)",
        ):
            Engine.coerce(removed)


class TestDetectOptions:
    def test_defaults(self):
        opts = DetectOptions()
        assert opts.engine is Engine.FAITHFUL
        assert opts.collect_groups is True
        assert opts.trace is False

    @pytest.mark.parametrize(
        "removed", ["processes", "min_pool_work", "skip_trivial_subtpiins"]
    )
    def test_removed_knobs_are_rejected(self, removed):
        from repro.detectors.iat import IATConfig

        for bag in (DetectOptions, IATConfig):
            assert removed not in bag.__dataclass_fields__
            with pytest.raises(TypeError):
                bag(**{removed: 1})

    def test_engine_coerced_on_construction(self):
        assert DetectOptions(engine="parallel").engine is Engine.PARALLEL
        with pytest.raises(MiningError, match="unknown engine"):
            DetectOptions(engine="warp")

    def test_frozen(self):
        opts = DetectOptions()
        with pytest.raises(AttributeError):
            opts.engine = Engine.PARALLEL  # type: ignore[misc]

    def test_validates_bounds(self):
        with pytest.raises(MiningError, match="max_trails_per_subtpiin"):
            DetectOptions(max_trails_per_subtpiin=0)

    def test_with_overrides_drops_nones(self):
        base = DetectOptions(engine=Engine.PARALLEL, max_trails_per_subtpiin=4)
        same = base.with_overrides(engine=None, max_trails_per_subtpiin=None)
        assert same is base
        changed = base.with_overrides(engine="incremental", collect_groups=None)
        assert changed.engine is Engine.INCREMENTAL
        assert changed.max_trails_per_subtpiin == 4
        assert base.engine is Engine.PARALLEL  # original untouched

    def test_with_overrides_coerces_engine(self):
        with pytest.raises(MiningError, match="unknown engine"):
            DetectOptions().with_overrides(engine="nope")


class TestResolveTracer:
    def test_false_and_none_are_null(self):
        assert DetectOptions(trace=False).resolve_tracer() is NULL_TRACER
        assert DetectOptions(trace=None).resolve_tracer() is NULL_TRACER  # type: ignore[arg-type]

    def test_true_is_a_fresh_tracer(self):
        first = DetectOptions(trace=True).resolve_tracer()
        second = DetectOptions(trace=True).resolve_tracer()
        assert isinstance(first, Tracer)
        assert first is not second
        assert first.enabled

    def test_caller_owned_tracer_passes_through(self):
        tracer = Tracer()
        assert DetectOptions(trace=tracer).resolve_tracer() is tracer
