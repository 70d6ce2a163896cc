"""Property: every engine and both oracles agree on random TPIINs.

This is the library's keystone invariant (DESIGN.md, item 3): the
faithful Algorithm 1/2, the streaming detector, the naive Appendix-B
matcher and the paper's global-traversal baseline all produce the same
group set, and the suspicious-arc set equals both reachability oracles.
The streaming detector's bulk seed equals its one-arc-at-a-time path.
The parallel engine has its own suite (test_parallel_equivalence).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.global_traversal import global_traversal_detect
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.mining.matching import match_component_patterns, match_pairs_naive
from repro.mining.oracle import suspicious_arc_oracle, suspicious_arc_oracle_closure
from repro.mining.patterns import build_patterns_tree

from .strategies import tpiins


@settings(max_examples=80, deadline=None)
@given(tpiin=tpiins())
def test_faithful_equals_global_traversal(tpiin):
    faithful = detect(tpiin)
    baseline = global_traversal_detect(tpiin, starts="roots")
    assert {g.key() for g in faithful.groups} == {g.key() for g in baseline.groups}


@settings(max_examples=80, deadline=None)
@given(tpiin=tpiins())
def test_suspicious_arcs_match_both_oracles(tpiin):
    detected = detect(tpiin).suspicious_trading_arcs
    assert detected == suspicious_arc_oracle(tpiin)
    assert detected == suspicious_arc_oracle_closure(tpiin)


@settings(max_examples=80, deadline=None)
@given(tpiin=tpiins())
def test_indexed_matching_equals_naive(tpiin):
    trails = build_patterns_tree(tpiin.graph, build_tree=False).trails
    indexed = {g.key() for g in match_component_patterns(trails)}
    naive = {g.key() for g in match_pairs_naive(trails)}
    assert indexed == naive


@settings(max_examples=60, deadline=None)
@given(tpiin=tpiins())
def test_all_mode_baseline_is_superset_with_same_arcs(tpiin):
    roots_mode = global_traversal_detect(tpiin, starts="roots")
    all_mode = global_traversal_detect(tpiin, starts="all")
    assert {g.key() for g in roots_mode.groups} <= {
        g.key() for g in all_mode.groups
    }
    assert (
        roots_mode.suspicious_trading_arcs == all_mode.suspicious_trading_arcs
    )


@settings(max_examples=60, deadline=None)
@given(tpiin=tpiins())
def test_incremental_equals_batch_after_add_remove(tpiin):
    """Streaming adds/removes converge to the batch result."""
    from repro.fusion.tpiin import TPIIN

    arcs = sorted(tpiin.trading_arcs())
    antecedent = TPIIN(graph=tpiin.antecedent_graph())
    detector = IncrementalDetector(antecedent)
    # Add everything, remove the first half, re-add it.
    for arc in arcs:
        detector.add_trading_arc(*arc)
    for arc in arcs[: len(arcs) // 2]:
        detector.remove_trading_arc(*arc)
    for arc in arcs[: len(arcs) // 2]:
        detector.add_trading_arc(*arc)

    batch = detect(tpiin, engine="faithful")
    assert detector.suspicious_arcs == batch.suspicious_trading_arcs
    streamed = detector.result()
    assert {g.key() for g in streamed.groups} == {g.key() for g in batch.groups}
    assert streamed.simple_group_count == batch.simple_group_count
    assert streamed.complex_group_count == batch.complex_group_count


@settings(max_examples=60, deadline=None)
@given(tpiin=tpiins(), data=st.data())
def test_seed_equals_streamed_adds(tpiin, data):
    """One bulk seed loads the same arcs and groups as per-arc adds."""
    arcs = sorted(tpiin.trading_arcs())
    repeats = data.draw(st.lists(st.sampled_from(arcs), max_size=4)) if arcs else []
    stream = data.draw(st.permutations(arcs + repeats))
    antecedent = tpiin.antecedent_view()
    seeded = IncrementalDetector(antecedent)
    seeded.seed(stream)
    streamed = IncrementalDetector(antecedent)
    for arc in stream:
        streamed.add_trading_arc(*arc)

    assert seeded.trading_arcs() == streamed.trading_arcs()
    for arc in seeded.trading_arcs():
        assert {g.key() for g in seeded.groups_for_arc(*arc)} == {
            g.key() for g in streamed.groups_for_arc(*arc)
        }
    assert seeded.suspicious_arcs == streamed.suspicious_arcs
    assert sorted(g.key() for g in seeded.result().groups) == sorted(
        g.key() for g in streamed.result().groups
    )


@settings(max_examples=40, deadline=None)
@given(tpiin=tpiins(), data=st.data())
def test_sliding_windows_match_batch(tpiin, data):
    """Every temporal window equals batch detection on its active arcs."""
    from repro.fusion.tpiin import TPIIN
    from repro.mining.temporal import TimedTrade, active_in, sliding_window_detect
    from repro.model.colors import EColor

    arcs = sorted(tpiin.trading_arcs())
    trades = []
    for seller, buyer in arcs:
        start = data.draw(st.integers(0, 20))
        length = data.draw(st.one_of(st.none(), st.integers(1, 15)))
        trades.append(
            TimedTrade(seller, buyer, start, None if length is None else start + length)
        )
    antecedent = TPIIN(graph=tpiin.antecedent_graph())
    for window_result in sliding_window_detect(
        antecedent, trades, window=7, step=4
    ):
        expected = TPIIN(graph=tpiin.antecedent_graph())
        for arc in active_in(
            trades, window_result.window_start, window_result.window_end
        ):
            expected.graph.add_arc(*arc, EColor.TRADING)
        batch = detect(expected, engine="faithful")
        assert window_result.suspicious_arcs == batch.suspicious_trading_arcs
        assert (
            window_result.result.group_count == batch.group_count
        ), f"window {window_result.window_start}"
