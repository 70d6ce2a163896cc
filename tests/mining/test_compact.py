"""Unit tests for the compact mining plan, kernels and lazy groups."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.mining.compact import (
    CompactMine,
    LazyGroups,
    build_plan,
    count_mine,
    make_group_store,
)
from repro.mining.csr_engine import (
    _FRONTIER_MIN_TREE,
    mine_components,
    mine_frontier_compact,
    mine_stack_compact,
)
from repro.mining.detector import detect
from repro.model.colors import EColor


def frozen(tpiin) -> CSRGraph:
    return CSRGraph.freeze(tpiin.graph, colors=(EColor.INFLUENCE, EColor.TRADING))


class TestMiningPlan:
    def test_components_match_faithful_segmentation(self, small_province_tpiin):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        faithful = detect(small_province_tpiin)
        assert plan.n_components == faithful.subtpiin_count
        assert plan.cross_count == faithful.cross_component_trades
        assert int(plan.comp_sizes.sum()) == len(csr)
        # Every faithful sub-result corresponds to one nontrivial
        # component with the same node and trading-arc counts.
        selected = plan.nontrivial()
        faithful_shapes = sorted(
            (sub.node_count, sub.trading_arc_count) for sub in faithful.sub_results
        )
        plan_shapes = sorted(
            (int(plan.comp_sizes[comp]), int(plan.trading_by_comp[comp]))
            for comp in selected.tolist()
        )
        assert plan_shapes == faithful_shapes

    def test_estimate_is_exact_for_acyclic_components(self, small_province_tpiin):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        selected = plan.nontrivial()
        acyclic = selected[~plan.cyclic[selected]]
        assert acyclic.size > 0
        mine = mine_components(csr, plan, acyclic)
        per_comp = np.bincount(
            plan.comp_id[mine.node], minlength=plan.n_components
        )
        assert np.array_equal(per_comp[acyclic], plan.est_tree[acyclic])

    def test_nontrivial_requires_intra_trading(self, fig8):
        csr = frozen(fig8)
        plan = build_plan(csr, fig8.graph.nodes())
        selected = plan.nontrivial()
        assert np.all(plan.trading_by_comp[selected] > 0)
        skipped = np.setdiff1d(np.arange(plan.n_components), selected)
        assert np.all(plan.trading_by_comp[skipped] == 0)


class TestKernels:
    def test_frontier_equals_stack_on_acyclic(self, small_province_tpiin):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        selected = plan.nontrivial()
        acyclic = selected[~plan.cyclic[selected]]
        front = mine_frontier_compact(csr, plan, acyclic)
        stack = mine_stack_compact(csr, plan, acyclic)
        assert np.array_equal(front.rule1_by_comp, stack.rule1_by_comp)
        front_counts = count_mine(front, plan)
        stack_counts = count_mine(stack, plan)
        assert np.array_equal(
            front_counts.trails_by_comp, stack_counts.trails_by_comp
        )
        assert np.array_equal(
            front_counts.matched_by_comp, stack_counts.matched_by_comp
        )
        assert np.array_equal(
            front_counts.suspicious_arcs, stack_counts.suspicious_arcs
        )
        decode = csr.decode_table
        front_groups = make_group_store(front, decode, plan.comp_id).groups_for(None)
        stack_groups = make_group_store(stack, decode, plan.comp_id).groups_for(None)
        assert {g.key() for g in front_groups} == {g.key() for g in stack_groups}

    def test_kernel_selection_prefers_frontier_for_big_trees(
        self, small_province_tpiin
    ):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        selected = plan.nontrivial()
        frontier_mask = ~plan.cyclic[selected] & (
            plan.est_tree[selected] >= _FRONTIER_MIN_TREE
        )
        merged = mine_components(csr, plan, selected)
        counts = count_mine(merged, plan)
        stack_only = mine_stack_compact(csr, plan, selected)
        stack_counts = count_mine(stack_only, plan)
        assert np.array_equal(counts.trails_by_comp, stack_counts.trails_by_comp)
        assert np.array_equal(counts.suspicious_arcs, stack_counts.suspicious_arcs)
        assert frontier_mask.dtype == np.bool_

    def test_counts_match_faithful(self, small_province_tpiin):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        mine = mine_components(csr, plan, plan.nontrivial())
        counts = count_mine(mine, plan)
        faithful = detect(small_province_tpiin)
        assert int(counts.trails_by_comp.sum()) == faithful.pattern_trail_count

    def test_merge_shifts_parent_indices(self, small_province_tpiin):
        csr = frozen(small_province_tpiin)
        plan = build_plan(csr, small_province_tpiin.graph.nodes())
        selected = plan.nontrivial().tolist()
        assert len(selected) >= 2
        split = len(selected) // 2
        left = mine_components(csr, plan, np.asarray(selected[:split]))
        right = mine_components(csr, plan, np.asarray(selected[split:]))
        merged = CompactMine.merge([left, right], plan.n_components)
        whole = mine_components(csr, plan, np.asarray(selected))
        merged_counts = count_mine(merged, plan)
        whole_counts = count_mine(whole, plan)
        assert np.array_equal(
            merged_counts.trails_by_comp, whole_counts.trails_by_comp
        )
        assert np.array_equal(
            merged_counts.suspicious_arcs, whole_counts.suspicious_arcs
        )


class TestLazyGroups:
    def build_store(self, tpiin):
        csr = frozen(tpiin)
        plan = build_plan(csr, tpiin.graph.nodes())
        mine = mine_components(csr, plan, plan.nontrivial())
        counts = count_mine(mine, plan)
        store = make_group_store(mine, csr.decode_table, plan.comp_id)
        return plan, counts, store

    def test_len_before_materialization(self, fig8):
        plan, counts, store = self.build_store(fig8)
        total = int((counts.matched_by_comp + counts.circle_by_comp).sum())
        lazy = LazyGroups(store, None, total)
        assert len(lazy) == total  # O(1), no materialization needed yet
        assert {g.key() for g in lazy} == {
            g.key() for g in detect(fig8).groups
        }

    def test_sequence_protocol(self, fig8):
        plan, counts, store = self.build_store(fig8)
        total = int((counts.matched_by_comp + counts.circle_by_comp).sum())
        lazy = LazyGroups(store, None, total)
        assert list(lazy)[0] == lazy[0]
        assert lazy[-1] == list(lazy)[-1]
        assert lazy.count(lazy[0]) == 1

    def test_pickle_roundtrip(self, fig8):
        plan, counts, store = self.build_store(fig8)
        total = int((counts.matched_by_comp + counts.circle_by_comp).sum())
        lazy = LazyGroups(store, None, total)
        restored = pickle.loads(pickle.dumps(lazy))
        assert {g.key() for g in restored} == {g.key() for g in lazy}
        assert len(restored) == len(lazy)

    def test_length_drift_raises(self, fig8):
        plan, counts, store = self.build_store(fig8)
        total = int((counts.matched_by_comp + counts.circle_by_comp).sum())
        wrong = LazyGroups(store, None, total + 1)
        with pytest.raises(RuntimeError):
            list(wrong)
