"""Unit tests for the SuspiciousGroup structure (Definitions 2-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining.groups import GroupKind, SuspiciousGroup, trails_are_simple


def matched(trading=("a", "x", "t"), support=("a", "t")) -> SuspiciousGroup:
    return SuspiciousGroup(trading_trail=trading, support_trail=support)


class TestValidation:
    def test_valid_matched_group(self):
        g = matched()
        assert g.antecedent == "a"
        assert g.end == "t"
        assert g.trading_arc == ("x", "t")

    def test_start_mismatch_rejected(self):
        with pytest.raises(MiningError, match="start"):
            SuspiciousGroup(trading_trail=("a", "t"), support_trail=("b", "t"))

    def test_end_mismatch_rejected(self):
        with pytest.raises(MiningError, match="end"):
            SuspiciousGroup(trading_trail=("a", "t"), support_trail=("a", "u"))

    def test_short_trading_trail_rejected(self):
        with pytest.raises(MiningError):
            SuspiciousGroup(trading_trail=("a",), support_trail=("a",))

    def test_empty_support_rejected(self):
        with pytest.raises(MiningError):
            SuspiciousGroup(trading_trail=("a", "t"), support_trail=())

    def test_circle_must_close(self):
        with pytest.raises(MiningError, match="circle"):
            SuspiciousGroup(
                trading_trail=("a", "b"),
                support_trail=("b",),
                kind=GroupKind.CIRCLE,
            )

    def test_circle_support_must_be_trivial(self):
        with pytest.raises(MiningError, match="trivial"):
            SuspiciousGroup(
                trading_trail=("c", "d", "c"),
                support_trail=("c", "d"),
                kind=GroupKind.CIRCLE,
            )

    def test_valid_circle(self):
        g = SuspiciousGroup(
            trading_trail=("c", "d", "c"),
            support_trail=("c",),
            kind=GroupKind.CIRCLE,
        )
        assert g.is_simple
        assert g.trading_arc == ("d", "c")


class TestClassification:
    def test_simple_when_interiors_disjoint(self):
        g = SuspiciousGroup(
            trading_trail=("a", "x", "t"), support_trail=("a", "y", "t")
        )
        assert g.is_simple and not g.is_complex

    def test_complex_when_interiors_overlap(self):
        g = SuspiciousGroup(
            trading_trail=("a", "m", "x", "t"), support_trail=("a", "m", "t")
        )
        assert g.is_complex

    def test_scs_groups_are_simple(self):
        g = SuspiciousGroup(
            trading_trail=("a", "b"),
            support_trail=("a", "m", "b"),
            kind=GroupKind.SCS,
        )
        assert g.is_simple

    @settings(max_examples=300, deadline=None)
    @given(
        trading=st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=7),
        support=st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
        kind=st.sampled_from(list(GroupKind)),
    )
    def test_trails_are_simple_is_definition_3(self, trading, support, kind):
        """Interiors sharing no node, for any trail lengths and repeats;
        circle and SCS groups are simple by construction."""
        literal = kind is not GroupKind.MATCHED or not (
            set(trading[1:-1]) & set(support[1:-1])
        )
        assert trails_are_simple(tuple(trading), tuple(support), kind) is literal


class TestAccessors:
    def test_members_union(self):
        g = matched(trading=("a", "x", "t"), support=("a", "y", "t"))
        assert g.members == frozenset({"a", "x", "y", "t"})

    def test_component_patterns(self):
        g = matched()
        assert g.component_patterns() == (("a", "x", "t"), ("a", "t"))

    def test_key_is_hashable_and_distinct(self):
        g1 = matched()
        g2 = matched(support=("a", "y", "t"))
        assert g1.key() != g2.key()
        assert len({g1.key(), g2.key()}) == 2

    def test_render(self):
        text = matched().render()
        assert "a, x -> t" in text
        assert "simple" in text

    @pytest.mark.parametrize(
        "group, line",
        [
            (matched(), "[simple/matched] {a, x -> t} + {a, t}"),
            (
                matched(trading=("a", "x", "t"), support=("a", "x", "t")),
                "[complex/matched] {a, x -> t} + {a, x, t}",
            ),
            (
                SuspiciousGroup(("c", 4, "c"), ("c",), GroupKind.CIRCLE),
                "[simple/circle] {c, 4 -> c} + {c}",
            ),
            (
                SuspiciousGroup(("s", "u"), ("s", "u"), GroupKind.SCS),
                "[simple/scs] {s -> u} + {s, u}",
            ),
        ],
    )
    def test_render_lines(self, group, line):
        # The exact susGroup(i) line format; the file writer shares it.
        assert group.render() == line

    def test_iteration_sorted(self):
        g = matched(trading=("a", "z", "t"), support=("a", "b", "t"))
        assert list(g) == sorted(["a", "b", "t", "z"])


class TestMinimalGroups:
    def test_nested_group_dominated(self):
        from repro.mining.groups import minimal_groups

        small = SuspiciousGroup(
            trading_trail=("m", "x", "t"), support_trail=("m", "t")
        )
        big = SuspiciousGroup(
            trading_trail=("r", "m", "x", "t"), support_trail=("r", "m", "t")
        )
        assert minimal_groups([big, small]) == [small]

    def test_incomparable_groups_both_kept(self):
        from repro.mining.groups import minimal_groups

        a = SuspiciousGroup(trading_trail=("p", "x", "t"), support_trail=("p", "t"))
        b = SuspiciousGroup(trading_trail=("q", "y", "t"), support_trail=("q", "t"))
        assert minimal_groups([a, b]) == [a, b]

    def test_different_arcs_never_compared(self):
        from repro.mining.groups import minimal_groups

        small = SuspiciousGroup(trading_trail=("m", "t"), support_trail=("m", "x", "t"))
        other_arc = SuspiciousGroup(
            trading_trail=("m", "x", "u"), support_trail=("m", "u")
        )
        assert minimal_groups([small, other_arc]) == [small, other_arc]

    def test_on_detection_output(self, fig8):
        from repro.mining.detector import detect
        from repro.mining.groups import minimal_groups

        groups = detect(fig8).groups
        assert minimal_groups(groups) == groups  # fig8 has one group per arc

    def test_province_minimal_subset(self, small_province_tpiin):
        from repro.mining.detector import detect
        from repro.mining.groups import minimal_groups

        groups = detect(small_province_tpiin, engine="parallel").groups
        minimal = minimal_groups(groups)
        assert 0 < len(minimal) <= len(groups)
        arcs_before = {g.trading_arc for g in groups}
        arcs_after = {g.trading_arc for g in minimal}
        assert arcs_before == arcs_after  # no arc loses all its proof chains
