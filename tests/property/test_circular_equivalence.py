"""Property: the one-pass circular-trading scan equals the per-ring one.

The detector runs one Tarjan over the view's distinct sellers and files
every ring's internal arcs in one pass over the view's arcs; the
reference in ``tests/detectors/reference_circular.py`` walks each ring
member's buyers and sellers instead.  On random trading networks
(self-loops, 2-cycles, rings below ``min_cycle_size``, duplicate arcs)
both give the same findings, attributes and payload bytes.  The pieces
the scan stands on are pinned too: the Tarjan kernel emits what the
``min()`` kernel emitted, in order; ``map_trading_arcs``' unfused fast
path equals the general remap; the lazy in-adjacency equals an eager
index.
"""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.base import DetectionContext, DetectorRun, FrozenTradingView
from repro.detectors.circular import CircularTradingConfig, CircularTradingDetector
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import DiGraph
from repro.graph.tarjan import tarjan_sccs

from ..detectors.reference_circular import (
    reference_arcs_payload,
    reference_circular_run,
    reference_tarjan_sccs,
)


class _Unmatched:
    """A ``node_map`` key no arc endpoint equals: forces the general path."""


@st.composite
def trading_arcs(draw, max_nodes: int = 12):
    """Random arcs over int or str nodes, with planted cycles.

    Cycles of length 1 to 6 give self-loops, 2-cycles and rings above
    and below any ``min_cycle_size``; a repeated draw gives duplicates.
    """
    # Ids of one and two digits, so str order and int order differ.
    ids = draw(st.lists(st.integers(0, 39), min_size=1, max_size=max_nodes, unique=True))
    make = draw(st.sampled_from([int, lambda i: f"C{i}"]))
    nodes = [make(i) for i in ids]
    node = st.sampled_from(nodes)
    arcs = draw(st.lists(st.tuples(node, node), max_size=30))
    for cycle in draw(st.lists(st.lists(node, min_size=1, max_size=6), max_size=3)):
        arcs.extend(zip(cycle, cycle[1:] + cycle[:1]))
    if arcs:
        arcs.extend(draw(st.lists(st.sampled_from(arcs), max_size=5)))
    order = draw(st.permutations(range(len(arcs))))
    return nodes, [arcs[i] for i in order]


def _context(view: FrozenTradingView) -> DetectionContext:
    return DetectionContext(tpiin=TPIIN(graph=DiGraph()), _trading=view)


def _payload(outcome) -> str:
    run = DetectorRun(
        name="circular-trading",
        version="1.0.0",
        findings=tuple(outcome.findings),
        elapsed_seconds=0.0,
        attributes=dict(outcome.attributes),
    )
    return json.dumps(run.to_dict(), separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(
    network=trading_arcs(),
    min_cycle_size=st.integers(min_value=2, max_value=5),
    min_balance=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_pass_scan_equals_the_per_ring_scan(network, min_cycle_size, min_balance):
    nodes, arcs = network
    config = CircularTradingConfig(min_cycle_size=min_cycle_size, min_balance=min_balance)
    view = FrozenTradingView(arcs, nodes)
    outcome = CircularTradingDetector(config).run(_context(view))
    reference = reference_circular_run(FrozenTradingView(arcs, nodes), config)
    assert outcome.attributes == reference.attributes
    assert len(outcome.findings) == len(reference.findings)
    for got, want in zip(outcome.findings, reference.findings):
        assert got.members == want.members
        assert Counter(got.arcs) == Counter(want.arcs)
        assert got.score == want.score
        assert got.summary == want.summary
        assert got.details == want.details
        assert got.to_dict()["arcs"] == reference_arcs_payload(want)
    assert _payload(outcome) == _payload(reference)


@settings(max_examples=300, deadline=None)
@given(network=trading_arcs(), data=st.data())
def test_tarjan_emits_the_min_kernel_components_in_order(network, data):
    nodes, arcs = network
    successors: dict[object, list[object]] = {}
    for seller, buyer in arcs:
        successors.setdefault(seller, []).append(buyer)
    # Roots in any order, repeated, and some with no arcs at all.
    roots = data.draw(st.lists(st.sampled_from(nodes), max_size=2 * len(nodes)))

    def succ(node):
        return successors.get(node, ())

    assert tarjan_sccs(roots, succ) == reference_tarjan_sccs(roots, succ)
    view = FrozenTradingView(arcs, nodes)
    assert tarjan_sccs(view.sellers(), view.buyers_of) == reference_tarjan_sccs(
        (seller for seller, _ in arcs), view.buyers_of
    )


@settings(max_examples=300, deadline=None)
@given(network=trading_arcs())
def test_unfused_map_equals_the_general_remap(network):
    _, arcs = network
    unfused = TPIIN(graph=DiGraph())
    general = TPIIN(graph=DiGraph(), node_map={_Unmatched(): "elsewhere"})
    fast = unfused.map_trading_arcs(iter(arcs))
    slow = general.map_trading_arcs(iter(arcs))
    assert fast == slow
    assert all(type(arc) is tuple for part in fast for arc in part)


@settings(max_examples=300, deadline=None)
@given(network=trading_arcs(), probe_first=st.booleans())
def test_lazy_in_adjacency_equals_an_eager_index(network, probe_first):
    nodes, arcs = network
    eager: dict[object, list[object]] = {}
    for seller, buyer in arcs:
        eager.setdefault(buyer, []).append(seller)
    view = FrozenTradingView(arcs, nodes)
    probes = [*nodes, "absent"]
    if probe_first:
        # A degree read first builds the index as a sellers read does.
        assert [view.in_degree(n) for n in probes] == [
            len(eager.get(n, ())) for n in probes
        ]
    for node in probes:
        assert view.sellers_to(node) == tuple(eager.get(node, ()))
        assert view.in_degree(node) == len(eager.get(node, ()))
