"""Property: the parallel engine equals faithful.

The parallel engine rebuilds the whole pipeline — whole-graph freeze,
numpy segmentation plan, the frontier kernel, lazy group
materialization — so this suite pins its cross-engine contract on
random TPIINs: same group set, same suspicious arcs, same per-kind
counts, same trail and component tallies, and the same per-subTPIIN
results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import NotADagError
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.mining.parallel import parallel_detect

from .strategies import tpiins


def per_subtpiin(result):
    """Sorted ``(nodes, trading arcs, trails, group keys)`` per subTPIIN."""
    return sorted(
        (
            sub.node_count,
            sub.trading_arc_count,
            sub.pattern_trail_count,
            sorted(g.key() for g in sub.groups),
        )
        for sub in result.sub_results
    )


@settings(max_examples=120, deadline=None)
@given(tpiin=tpiins())
def test_parallel_equals_faithful(tpiin):
    faithful = detect(tpiin)
    parallel = parallel_detect(tpiin)
    assert {g.key() for g in parallel.groups} == {
        g.key() for g in faithful.groups
    }
    assert parallel.suspicious_trading_arcs == faithful.suspicious_trading_arcs
    assert parallel.pattern_trail_count == faithful.pattern_trail_count
    assert parallel.subtpiin_count == faithful.subtpiin_count
    assert parallel.kind_counts() == faithful.kind_counts()
    assert parallel.group_count == faithful.group_count
    assert (
        parallel.simple_group_count,
        parallel.complex_group_count,
    ) == (faithful.simple_group_count, faithful.complex_group_count)
    assert per_subtpiin(parallel) == per_subtpiin(faithful)


def test_parallel_rejects_a_cyclic_antecedent_network():
    tpiin = TPIIN.build(
        persons=("P",),
        companies=("A", "B", "C"),
        influence=[("P", "A"), ("A", "B"), ("B", "C"), ("C", "A")],
        trading=[("A", "C")],
    )
    with pytest.raises(NotADagError, match="antecedent network contains a directed cycle"):
        detect(tpiin, engine="parallel")
