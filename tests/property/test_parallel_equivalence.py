"""Property: the shared-memory parallel engine equals faithful.

The parallel engine rebuilds the whole pipeline — whole-graph freeze,
numpy segmentation plan, compact kernels, lazy group materialization —
so this suite pins its cross-engine contract on random TPIINs: same
group set, same suspicious arcs, same per-kind counts, same trail and
component tallies.  A slimmer pooled pass forces real worker processes
through the shared segment.
"""

from __future__ import annotations

import os

from hypothesis import given, settings

from repro.graph.shm import SHM_NAME_PREFIX, live_owned_segments
from repro.mining.detector import detect
from repro.mining.parallel import parallel_detect

from .strategies import tpiins


def shm_entries() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SHM_NAME_PREFIX)
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


@settings(max_examples=8, deadline=None)
@given(tpiin=tpiins(max_companies=10, max_trading=14))
def test_pooled_workers_equal_faithful_without_leaks(tpiin):
    """Force the pool even for tiny inputs: real fork, real segment."""
    faithful = detect(tpiin)
    pooled = parallel_detect(tpiin, processes=2, min_pool_work=0)
    assert {g.key() for g in pooled.groups} == {g.key() for g in faithful.groups}
    assert pooled.suspicious_trading_arcs == faithful.suspicious_trading_arcs
    assert shm_entries() == []
    assert live_owned_segments() == []
