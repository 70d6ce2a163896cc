"""Unit tests for the in-process parallel detector."""

from __future__ import annotations

from repro.mining.compact import LazyGroups
from repro.mining.detector import detect
from repro.mining.parallel import parallel_detect
from repro.obs.tracing import Tracer


class TestParallel:
    def test_matches_faithful_on_fig8(self, fig8):
        faithful = detect(fig8)
        parallel = parallel_detect(fig8)
        assert {g.key() for g in parallel.groups} == {
            g.key() for g in faithful.groups
        }
        assert parallel.engine == "parallel"

    def test_matches_faithful_on_small_province(self, small_province_tpiin):
        faithful = detect(small_province_tpiin)
        parallel = parallel_detect(small_province_tpiin)
        assert {g.key() for g in parallel.groups} == {
            g.key() for g in faithful.groups
        }
        assert parallel.suspicious_trading_arcs == faithful.suspicious_trading_arcs
        assert parallel.pattern_trail_count == faithful.pattern_trail_count
        assert parallel.subtpiin_count == faithful.subtpiin_count

    def test_engine_dispatch(self, fig8):
        result = detect(fig8, engine="parallel")
        assert result.engine == "parallel"

    def test_incremental_engine_dispatch(self, fig8):
        faithful = detect(fig8)
        result = detect(fig8, engine="incremental")
        assert result.engine == "incremental"
        assert {g.key() for g in result.groups} == {g.key() for g in faithful.groups}

    def test_sub_results_sorted_by_index(self, small_province_tpiin):
        result = parallel_detect(small_province_tpiin)
        indices = [sub.index for sub in result.sub_results]
        assert indices == sorted(indices)

    def test_groups_are_lazy_sequences(self, small_province_tpiin):
        result = parallel_detect(small_province_tpiin)
        assert isinstance(result.groups, LazyGroups)
        assert result.group_count == len(result.groups)
        for sub in result.sub_results:
            assert isinstance(sub.groups, LazyGroups)
        assert sum(len(sub.groups) for sub in result.sub_results) + len(
            [g for g in result.groups if g.kind.name == "SCS"]
        ) == len(result.groups)

    def test_stage_spans(self, small_province_tpiin):
        tracer = Tracer()
        parallel_detect(small_province_tpiin, tracer=tracer)
        assert [root.name for root in tracer.roots][:3] == ["freeze", "plan", "mine"]
        (plan,) = [root for root in tracer.roots if root.name == "plan"]
        assert plan.attributes["estimated_work"] > 0
