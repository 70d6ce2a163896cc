"""Unit tests for the compact mining plan, kernels and lazy groups."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import NotADagError
from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.mining.compact import (
    LazyGroups,
    build_plan,
    count_mine,
    make_group_store,
)
from repro.mining.csr_engine import mine_frontier_compact
from repro.mining.detector import detect
from repro.model.colors import EColor


def frozen(tpiin) -> CSRGraph:
    return CSRGraph.freeze(tpiin.graph, colors=(EColor.INFLUENCE, EColor.TRADING))


def planned(tpiin):
    csr = frozen(tpiin)
    return csr, build_plan(csr, tpiin.graph.nodes())


def mined_components(csr, plan, mine, comps):
    """Per component: (nodes, trading arcs, trails, group-key set)."""
    counts = count_mine(mine, plan)
    store = make_group_store(mine, csr.decode_table, plan.comp_id)
    return sorted(
        (
            int(plan.comp_sizes[comp]),
            int(plan.trading_by_comp[comp]),
            int(counts.trails_by_comp[comp]),
            sorted(g.key() for g in store.groups_for(comp)),
        )
        for comp in comps
    )


def faithful_components(tpiin):
    """The faithful engine's per-subTPIIN tuples, in the same shape."""
    return sorted(
        (
            sub.node_count,
            sub.trading_arc_count,
            sub.pattern_trail_count,
            sorted(g.key() for g in sub.groups),
        )
        for sub in detect(tpiin).sub_results
    )


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
        csr, plan = planned(small_province_tpiin)
        selected = plan.nontrivial()
        assert selected.size > 0
        mine = mine_frontier_compact(csr, plan, selected)
        per_comp = np.bincount(
            plan.comp_id[mine.node], minlength=plan.n_components
        )
        assert np.array_equal(per_comp[selected], plan.est_tree[selected])

    def test_nontrivial_requires_intra_trading(self, fig8):
        csr = frozen(fig8)
        plan = build_plan(csr, fig8.graph.nodes())
        selected = plan.nontrivial()
        assert np.all(plan.trading_by_comp[selected] > 0)
        skipped = np.setdiff1d(np.arange(plan.n_components), selected)
        assert np.all(plan.trading_by_comp[skipped] == 0)

    def test_cyclic_antecedent_network_is_rejected(self):
        tpiin = TPIIN.build(
            companies=("A", "B", "C"),
            influence=[("A", "B"), ("B", "C"), ("C", "A")],
            trading=[("A", "C")],
        )
        with pytest.raises(NotADagError, match="directed cycle"):
            planned(tpiin)


class TestKernels:
    def test_frontier_equals_faithful_per_component(self, small_province_tpiin):
        csr, plan = planned(small_province_tpiin)
        selected = plan.nontrivial()
        mine = mine_frontier_compact(csr, plan, selected)
        assert mined_components(
            csr, plan, mine, selected.tolist()
        ) == faithful_components(small_province_tpiin)

    def test_single_component_selections_equal_faithful(
        self, small_province_tpiin
    ):
        # One kernel call per component, so every tree, however small,
        # is mined on its own.
        csr, plan = planned(small_province_tpiin)
        per_call = []
        for comp in plan.nontrivial().tolist():
            mine = mine_frontier_compact(csr, plan, np.asarray([comp]))
            per_call.extend(mined_components(csr, plan, mine, [comp]))
        assert sorted(per_call) == faithful_components(small_province_tpiin)

    def test_counts_match_faithful(self, small_province_tpiin):
        csr, plan = planned(small_province_tpiin)
        mine = mine_frontier_compact(csr, plan, plan.nontrivial())
        counts = count_mine(mine, plan)
        faithful = detect(small_province_tpiin)
        assert int(counts.trails_by_comp.sum()) == faithful.pattern_trail_count

    def test_disjoint_selections_add_up(self, small_province_tpiin):
        csr, plan = planned(small_province_tpiin)
        selected = plan.nontrivial().tolist()
        assert len(selected) >= 2
        split = len(selected) // 2
        halves = [selected[:split], selected[split:]]
        per_half = []
        for half in halves:
            mine = mine_frontier_compact(csr, plan, np.asarray(half))
            # A selection mines its own components and nothing else.
            assert set(plan.comp_id[mine.node].tolist()) == set(half)
            per_half.extend(mined_components(csr, plan, mine, half))
        assert sorted(per_half) == faithful_components(small_province_tpiin)

    def test_empty_selection_mines_nothing(self, fig8):
        csr, plan = planned(fig8)
        mine = mine_frontier_compact(csr, plan, np.zeros(0, dtype=np.int64))
        counts = count_mine(mine, plan)
        assert len(mine.node) == 0 and len(mine.emit_tree) == 0
        assert int(counts.trails_by_comp.sum()) == 0
        assert int((counts.matched_by_comp + counts.circle_by_comp).sum()) == 0
        store = make_group_store(mine, csr.decode_table, plan.comp_id)
        assert store.groups_for(None) == []


class TestLazyGroups:
    def build_store(self, tpiin):
        csr, plan = planned(tpiin)
        mine = mine_frontier_compact(csr, plan, plan.nontrivial())
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
