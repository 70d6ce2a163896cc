"""Property: the parallel engine equals faithful.

The parallel engine rebuilds the whole pipeline — whole-graph freeze,
numpy segmentation plan, compact kernels, lazy group materialization —
so this suite pins its cross-engine contract on random TPIINs: same
group set, same suspicious arcs, same per-kind counts, same trail and
component tallies.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.mining.detector import detect
from repro.mining.parallel import parallel_detect

from .strategies import tpiins


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
