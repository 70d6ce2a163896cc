"""Unit tests for Algorithm 2: patterns tree and component pattern base."""

import pytest

from repro.datagen.cases import FIG10_EXPECTED_PATTERNS
from repro.fusion.tpiin import TPIIN
from repro.mining.patterns import PatternTrail, build_patterns_tree, list_d_order


class TestFig10Golden:
    def test_exact_pattern_base(self, fig8):
        result = build_patterns_tree(fig8.graph)
        rendered = {trail.render() for trail in result.trails}
        assert rendered == set(FIG10_EXPECTED_PATTERNS)
        assert len(result.trails) == 15  # no duplicates either

    def test_walk_type_split(self, fig8):
        result = build_patterns_tree(fig8.graph)
        outosp = [t for t in result.trails if t.is_outosp]
        ftaop = [t for t in result.trails if t.is_ftaop]
        # Fig. 10: patterns 4, 10, 11 are pure influence walks.
        assert {t.render() for t in outosp} == {"L1, C4", "B1, C6", "L4, C6"}
        assert len(ftaop) == 12

    def test_tree_structure(self, fig8):
        result = build_patterns_tree(fig8.graph)
        by_root = {root.node: root for root in result.roots}
        assert set(by_root) == {"L1", "L2", "L3", "L4", "L5", "B1", "B2"}
        # L1 subtree: C1 -> C3 -> (C5), C2 -> C5 -> (C6, C7), C4.
        l1 = by_root["L1"]
        assert {child.node for child in l1.children} == {"C1", "C2", "C4"}
        assert sum(root.leaf_count() for root in result.roots) == 15

    def test_tree_rendering_marks_trading_steps(self, fig8):
        result = build_patterns_tree(fig8.graph)
        text = result.render_tree()
        assert "=> C6" in text  # trading step into C6
        assert "L1" in text

    def test_base_rendering_numbers_lines(self, fig8):
        result = build_patterns_tree(fig8.graph)
        text = result.render_base()
        assert text.splitlines()[0].startswith("1. ")
        assert len(text.splitlines()) == 15


class TestListD:
    def test_order_keys(self, fig8):
        order = list_d_order(fig8.graph)
        g = fig8.graph
        keys = [(g.in_degree(n), -g.out_degree(n)) for n in order]
        assert keys == sorted(keys)

    def test_roots_lead(self, fig8):
        order = list_d_order(fig8.graph)
        persons = {"L1", "L2", "L3", "L4", "L5", "B1", "B2"}
        assert set(order[:7]) == persons


class TestRules:
    def test_rule1_outdegree_zero(self):
        t = TPIIN.build(persons=["p"], companies=["c"], influence=[("p", "c")])
        result = build_patterns_tree(t.graph)
        assert [tr.render() for tr in result.trails] == ["p, c"]

    def test_rule2_stops_at_first_trading_arc(self):
        # c2's outgoing influence must NOT be explored past the trading arc.
        t = TPIIN.build(
            persons=["p"],
            companies=["c1", "c2", "c3"],
            influence=[("p", "c1"), ("c2", "c3")],
            trading=[("c1", "c2")],
        )
        result = build_patterns_tree(t.graph)
        rendered = {tr.render() for tr in result.trails}
        assert "p, c1 -> c2" in rendered
        assert not any("c3" in r for r in rendered if r.startswith("p"))

    def test_intermediate_prefixes_not_emitted(self, fig8):
        result = build_patterns_tree(fig8.graph)
        rendered = {tr.render() for tr in result.trails}
        assert "L1, C2" not in rendered
        assert "L1, C2, C5" not in rendered

    def test_isolated_root_emits_singleton(self):
        t = TPIIN.build(persons=["p"], companies=["c"], influence=[("p", "c")])
        t.graph.add_node("lonely", "Person")
        result = build_patterns_tree(t.graph)
        assert ("lonely",) in {tr.nodes for tr in result.trails}

    def test_company_root_with_trading_arc(self):
        # A company with no influence ancestors starts its own walks.
        t = TPIIN.build(
            companies=["c1", "c2"],
            influence=[("c1", "c2")],
            trading=[("c1", "c2")],
        )
        result = build_patterns_tree(t.graph)
        rendered = {tr.render() for tr in result.trails}
        assert rendered == {"c1, c2", "c1 -> c2"}

    def test_circle_walk_detected(self):
        t = TPIIN.build(
            persons=["a"],
            companies=["c4", "c5"],
            influence=[("a", "c4"), ("c4", "c5")],
            trading=[("c5", "c4")],
        )
        result = build_patterns_tree(t.graph)
        circles = [tr for tr in result.trails if tr.has_circle]
        assert len(circles) == 1
        assert circles[0].render() == "a, c4, c5 -> c4"


class TestBounds:
    def test_build_tree_false_skips_forest(self, fig8):
        result = build_patterns_tree(fig8.graph, build_tree=False)
        assert result.roots == []
        assert len(result.trails) == 15


class TestPatternTrail:
    def test_properties(self):
        trail = PatternTrail(nodes=("a", "b"), trading_target="c")
        assert trail.antecedent == "a"
        assert trail.is_ftaop and not trail.is_outosp
        assert trail.trading_arc == ("b", "c")
        assert not trail.has_circle
        assert len(trail) == 3

    def test_outosp(self):
        trail = PatternTrail(nodes=("a", "b"))
        assert trail.is_outosp
        assert trail.trading_arc is None
        assert len(trail) == 2
        assert trail.render() == "a, b"
