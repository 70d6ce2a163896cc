"""The parallel engine's group decode equals the lane-by-lane reference.

:func:`repro.mining.compact._materialize` decodes the groups one
component run at a time from the lanes that make a group, reading the
matcher index that :func:`~repro.mining.compact.count_mine` built.  The
reference in ``tests/mining/reference_materialize.py`` visits every
lane in emission order and recomputes the index itself.  Every
component's list and the merged list must be the same groups in the
same order, on the paper's fixtures, on hand-built circle cases, on the
empty selection, on random TPIINs and on generated fused provinces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.mining import compact
from repro.mining.compact import build_plan, count_mine, make_group_store
from repro.mining.csr_engine import mine_frontier_compact
from repro.mining.groups import GroupKind
from repro.model.colors import EColor

from ..property.strategies import tpiins
from .reference_materialize import reference_groups_for, reference_materialize


def mined(tpiin: TPIIN, selected: np.ndarray | None = None):
    """``(decode table, plan, mine)`` of one parallel run's kernel."""
    csr = CSRGraph.freeze(tpiin.graph, colors=(EColor.INFLUENCE, EColor.TRADING))
    plan = build_plan(csr, tpiin.graph.nodes())
    if selected is None:
        selected = plan.nontrivial()
    return csr.decode_table, plan, mine_frontier_compact(csr, plan, selected)


def assert_decode_is_reference(tpiin: TPIIN, selected: np.ndarray | None = None):
    """Compare every component's groups and the merged list, in order.

    Returns the reference decode so callers can check what it covered.
    """
    decode, plan, mine = mined(tpiin, selected)
    want = reference_materialize(mine, decode, plan.comp_id, plan.n_nodes)
    # The tallies first, as the engine runs them: the decode then reads
    # the index count_mine built.
    counts = count_mine(mine, plan)
    store = make_group_store(mine, decode, plan.comp_id)
    for comp in [*range(plan.n_components), None]:
        got = store.groups_for(comp)
        expected = reference_groups_for(want, comp)
        assert len(got) == len(expected), comp
        for position, (group, reference) in enumerate(zip(got, expected)):
            assert (group.trading_trail, group.support_trail) == (
                reference.trading_trail,
                reference.support_trail,
            ), (comp, position)
            assert group.kind is reference.kind, (comp, position)
    # Only components with a group get a list: the decode visits no lane
    # that makes none.
    assert set(store._by_comp) == {comp for comp, groups in want.items() if groups}
    per_comp = counts.matched_by_comp + counts.circle_by_comp
    for comp in range(plan.n_components):
        assert len(store.groups_for(comp)) == per_comp[comp]
    return want


def circle_lanes(tpiin: TPIIN) -> tuple[int, int]:
    """``(circle emissions, circle groups)``: more lanes than groups means
    the input exercises the circle dedup."""
    decode, plan, mine = mined(tpiin)
    want = reference_materialize(mine, decode, plan.comp_id, plan.n_nodes)
    groups = sum(
        group.kind is GroupKind.CIRCLE for groups in want.values() for group in groups
    )
    lanes = int(compact._matcher_index(mine, plan.n_nodes).circle.sum())
    return lanes, groups


def shared_circle() -> TPIIN:
    """Two persons above one investment chain closed by a trade back up
    it: both roots emit the same cycle, so its lane repeats."""
    return TPIIN.build(
        persons=("P1", "P2"),
        companies=("A", "B", "C", "D"),
        influence=[
            ("P1", "A"),
            ("P2", "A"),
            ("A", "B"),
            ("B", "C"),
            ("P1", "D"),
            ("D", "C"),
        ],
        trading=[("C", "A"), ("C", "B"), ("B", "D"), ("A", "C")],
    )


def two_circle_components() -> TPIIN:
    """Two components, each with a repeated circle and matched groups."""
    return TPIIN.build(
        persons=("P1", "P2", "Q1", "Q2"),
        companies=("A", "B", "C", "X", "Y", "Z"),
        influence=[
            ("P1", "A"),
            ("P2", "A"),
            ("A", "B"),
            ("A", "C"),
            ("Q1", "X"),
            ("Q2", "X"),
            ("X", "Y"),
            ("Q1", "Z"),
        ],
        trading=[("B", "A"), ("B", "C"), ("Y", "X"), ("Z", "Y"), ("C", "B")],
    )


def barren_component() -> TPIIN:
    """Two components: in the first, no root reaches both ends of its
    trade (``A`` only under ``P1``, ``B`` only under ``P2``), so its lane
    makes no group; the second has a matched group."""
    return TPIIN.build(
        persons=("P1", "P2", "Q"),
        companies=("A", "B", "C", "X", "Y"),
        influence=[
            ("P1", "A"),
            ("P1", "C"),
            ("P2", "C"),
            ("P2", "B"),
            ("Q", "X"),
            ("Q", "Y"),
        ],
        trading=[("A", "B"), ("X", "Y")],
    )


@pytest.mark.parametrize("name", ["fig6", "fig8", "case1", "case2", "case3"])
def test_paper_fixtures(request, name):
    assert_decode_is_reference(request.getfixturevalue(name))


@pytest.mark.parametrize("build", [shared_circle, two_circle_components])
def test_repeated_circles_decode_once_in_lane_order(build):
    tpiin = build()
    lanes, groups = circle_lanes(tpiin)
    assert lanes > groups > 0
    assert_decode_is_reference(tpiin)


def test_a_component_without_groups_gets_no_list():
    want = assert_decode_is_reference(barren_component())
    assert [len(want[comp]) for comp in sorted(want)] == [0, 1]


def test_empty_selection_decodes_nothing(fig8):
    want = assert_decode_is_reference(fig8, np.zeros(0, dtype=np.int64))
    assert want == {}


def test_dense_province_keeps_lane_order():
    """Thousands of groups in a few components: long runs of equal
    component keys, where only a stable lane sort keeps emission order."""
    config = ProvinceConfig(
        companies=400,
        legal_persons=220,
        directors=126,
        investment_extra_arc_share=0.20,
        dual_holding_attach_both=0.9,
        seed=31,
    )
    dataset = generate_province(config)
    tpiin = dataset.overlay_trading(dataset.antecedent_tpiin(), 0.02)
    want = assert_decode_is_reference(tpiin)
    assert max(len(groups) for groups in want.values()) > 1000
    lanes, groups = circle_lanes(tpiin)
    assert lanes > groups > 0


def test_the_index_is_built_once_per_mine(fig8, monkeypatch):
    calls = []
    circle_flags = compact._circle_flags

    def counted(mine):
        calls.append(mine)
        return circle_flags(mine)

    monkeypatch.setattr(compact, "_circle_flags", counted)
    decode, plan, mine = mined(fig8)
    counts = count_mine(mine, plan)
    make_group_store(mine, decode, plan.comp_id).groups_for(None)
    assert len(calls) == 1
    # Decode first, count second: the same tallies as a fresh count.
    decode, plan, other = mined(fig8)
    make_group_store(other, decode, plan.comp_id).groups_for(None)
    recount = count_mine(other, plan)
    assert len(calls) == 2
    assert np.array_equal(recount.matched_by_comp, counts.matched_by_comp)
    assert np.array_equal(recount.circle_by_comp, counts.circle_by_comp)
    assert np.array_equal(recount.suspicious_arcs, counts.suspicious_arcs)


@settings(max_examples=150, deadline=None)
@given(tpiin=tpiins())
def test_random_tpiins(tpiin):
    assert_decode_is_reference(tpiin)


@settings(max_examples=40, deadline=None)
@given(
    companies=st.integers(min_value=8, max_value=150),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    probability=st.floats(min_value=0.005, max_value=0.08),
    extra_investment=st.sampled_from([None, 0.1, 0.25]),
)
def test_generated_fused_provinces(companies, seed, probability, extra_investment):
    config = ProvinceConfig.small(companies=companies, seed=seed)
    if extra_investment is not None:
        config = ProvinceConfig(
            companies=companies,
            legal_persons=config.legal_persons,
            directors=config.directors,
            investment_extra_arc_share=extra_investment,
            dual_holding_attach_both=0.9,
            seed=seed,
        )
    dataset = generate_province(config)
    assert_decode_is_reference(
        dataset.overlay_trading(dataset.antecedent_tpiin(), probability)
    )
