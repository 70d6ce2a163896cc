"""Property: the daemon's reads from live state equal batch rebuilds.

The daemon answers an investigation from the company's subTPIIN only,
and a findings request from its antecedent view plus the live arcs and
groups, without rebuilding the network.  After random add/remove
streams over a small fused province, each read must equal what a
rebuild gives:

* every company's investigation equals :func:`investigate_company` over
  the whole live result;
* each structural detector's findings equal a :func:`run_detectors` run
  over ``tpiin.with_trading_arcs(arcs)``;
* ``iat-groups`` findings equal a faithful run's;
* ``cross_component_trades`` equals a batch :func:`detect` over the
  rebuilt network (both count fused arcs, not original ones);
* the summary behind ``GET /v1/result`` equals the header of the live
  result's document plus its group and suspicious-arc counts;
* walking the group pages gives the live result's groups, and with
  writes between pages never repeats or skips a group of an arc that
  stayed live.

The last two also run on a CSV-loaded copy of the province, which has
no contraction map.

The streams mix contracted-syndicate arcs (both endpoints in one
syndicate, or one syndicate member trading out), repeated ops, and the
removal of one of two original arcs fused onto one graph arc.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.investigate import investigate_company
from repro.datagen.config import ProvinceConfig
from repro.datagen.planted import (
    plant_circular_rings,
    plant_missing_trader_chains,
    plant_shared_households,
)
from repro.datagen.province import generate_province
from repro.detectors import run_detectors
from repro.fusion.pipeline import fuse
from repro.graph.traversal import weakly_connected_components
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.results_io import _header, summary_to_dict
from repro.mining.detector import detect
from repro.model.colors import EColor, VColor
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService

STRUCTURAL = ("circular-trading", "missing-trader", "shared-household")


def _fused_province():
    """A small province with contracted company syndicates and planted
    cases of each portfolio scenario, fused with its registry."""
    config = dataclasses.replace(
        ProvinceConfig.small(companies=120, seed=29), mutual_investment_pairs=4
    )
    dataset = generate_province(config)
    g1, g2, gi = dataset.interdependence, dataset.influence, dataset.investment
    g4 = dataset.trading_graph(0.004)
    plant_circular_rings(g1, g2, gi, g4, count=2, size=4)
    plant_missing_trader_chains(g1, g2, gi, g4, count=2, registry=dataset.registry)
    plant_shared_households(g1, g2, gi, g4, count=2)
    return fuse(g1, g2, gi, g4, registry=dataset.registry).tpiin


TPIIN_ = _fused_province()
GRAPH = TPIIN_.graph
COMPANIES = sorted(GRAPH.nodes(VColor.COMPANY), key=str)
COMPONENT = {
    node: i
    for i, component in enumerate(
        weakly_connected_components(TPIIN_.antecedent_graph(), EColor.INFLUENCE)
    )
    for node in component
}
BASELINE = [*TPIIN_.trading_arcs(), *TPIIN_.intra_scs_trades]


def _fused(node):
    return TPIIN_.node_map.get(node, node)


#: Syndicate -> its original member ids (contracted company syndicates).
SYNDICATES: dict[str, list[str]] = {}
for _original, _node in sorted(TPIIN_.node_map.items()):
    if _original != _node and GRAPH.node_color(_node) == VColor.COMPANY:
        SYNDICATES.setdefault(_node, []).append(_original)
assert SYNDICATES and all(len(members) >= 2 for members in SYNDICATES.values())

#: Original ids a trade may name: graph companies and syndicate members.
TRADERS = COMPANIES + sorted(m for members in SYNDICATES.values() for m in members)


def _neighbours(syndicate):
    """Companies of the syndicate's own subTPIIN: trades there can be suspicious."""
    return [
        c for c in COMPANIES if COMPONENT[c] == COMPONENT[syndicate] and c != syndicate
    ]


_arc = st.tuples(st.sampled_from(TRADERS), st.sampled_from(TRADERS)).filter(
    lambda arc: arc[0] != arc[1] and _fused(arc[0]) != _fused(arc[1])
)
_intra = st.sampled_from(sorted(SYNDICATES)).flatmap(
    lambda s: st.permutations(SYNDICATES[s]).map(lambda m: (m[0], m[1]))
)


@st.composite
def _twins(draw):
    """Two original arcs fused onto one graph arc: members of one
    syndicate selling to (or buying from) the same company."""
    syndicate = draw(st.sampled_from(sorted(SYNDICATES)))
    first, second = draw(st.permutations(SYNDICATES[syndicate]))[:2]
    other = draw(st.sampled_from(_neighbours(syndicate) or COMPANIES))
    if draw(st.booleans()):
        return (first, other), (second, other), draw(st.booleans())
    return (other, first), (other, second), draw(st.booleans())


_step = st.one_of(
    st.tuples(st.sampled_from(["add", "remove"]), _arc),
    st.tuples(st.sampled_from(["add", "remove"]), _intra),
    st.tuples(st.just("remove"), st.sampled_from(BASELINE)),
    st.tuples(st.just("twins"), _twins()),
)


def _expand(steps):
    """``(op, arc)`` pairs; a twin step adds both arcs, then may remove the first."""
    ops = []
    for op, payload in steps:
        if op == "twins":
            first, second, remove_first = payload
            ops += [("add", first), ("add", second)]
            if remove_first:
                ops.append(("remove", first))
        else:
            ops.append((op, payload))
    return ops


def _without_elapsed(payload):
    payload = dict(payload)
    payload.pop("elapsed_seconds")
    return payload


@pytest.mark.parametrize("name", STRUCTURAL)
def test_fixture_exercises_each_detector(name):
    assert run_detectors(TPIIN_, [name])[name].findings


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=12))
# C00018 fuses into a syndicate whose arc to C00075 is already in the
# baseline: the live and batch results count that fused arc once, while
# a recount over original arcs counts it twice.
@example(steps=[("add", ("C00018", "C00075"))])
def test_live_reads_equal_batch_rebuilds(steps):
    live = dict.fromkeys(BASELINE)
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(state_dir=Path(tmp), port=0, fsync=False)
        with ShardedDetectionService.open(TPIIN_, config) as service:
            for op, (seller, buyer) in _expand(steps):
                if op == "add":
                    service.add_arc(seller, buyer)
                    live.setdefault((seller, buyer))
                else:
                    service.remove_arc(seller, buyer)
                    live.pop((seller, buyer), None)
            arcs = list(live)
            result = service.result()
            for company in COMPANIES:
                assert (
                    service.investigate(company).to_dict()
                    == investigate_company(TPIIN_, result, company).to_dict()
                )
            rebuilt = TPIIN_.with_trading_arcs(arcs)
            batch = run_detectors(rebuilt, "all")
            for name in STRUCTURAL:
                assert _without_elapsed(service.detector_findings(name)) == (
                    _without_elapsed(batch[name].to_dict())
                )
            iat = service.detector_findings("iat-groups")
            faithful = batch["iat-groups"].to_dict()
            assert iat["findings"] == faithful["findings"]
            assert iat["attributes"] == {**faithful["attributes"], "engine": "incremental"}
            assert (
                result.cross_component_trades
                == detect(rebuilt).cross_component_trades
            )


def _csv_loaded(tpiin):
    """``tpiin`` written to and read back from edge-list CSVs: no node map."""
    with tempfile.TemporaryDirectory() as tmp:
        arcs, nodes = Path(tmp) / "net.arcs.csv", Path(tmp) / "net.nodes.csv"
        write_tpiin_csv(tpiin, arcs, nodes)
        return read_tpiin_csv(arcs, nodes)


PLAIN = _csv_loaded(TPIIN_)
assert not PLAIN.node_map
PLAIN_COMPANIES = sorted(PLAIN.graph.nodes(VColor.COMPANY), key=str)
PLAIN_BASELINE = sorted(PLAIN.trading_arcs(), key=str)
_plain_step = st.one_of(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.tuples(
            st.sampled_from(PLAIN_COMPANIES), st.sampled_from(PLAIN_COMPANIES)
        ).filter(lambda arc: arc[0] != arc[1]),
    ),
    st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(PLAIN_BASELINE)),
)

#: fixture -> (TPIIN, one-step strategy, step expansion)
FIXTURES = {"fused": (TPIIN_, _step, _expand), "plain": (PLAIN, _plain_step, list)}


@contextlib.contextmanager
def _served(tpiin):
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(state_dir=Path(tmp), port=0, fsync=False)
        with ShardedDetectionService.open(tpiin, config) as service:
            yield service


def _apply(service, op, arc):
    if op == "add":
        service.add_arc(*arc)
    else:
        service.remove_arc(*arc)


def _expected_summary(result):
    return [
        *_header(result),
        ("group_count", len(result.groups)),
        ("suspicious_arc_count", len(result.suspicious_trading_arcs)),
    ]


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_summary_equals_the_result_header(fixture, data):
    tpiin, step, expand = FIXTURES[fixture]
    steps = data.draw(st.lists(step, min_size=1, max_size=12))
    with _served(tpiin) as service:
        assert list(summary_to_dict(service.summary()).items()) == _expected_summary(
            service.result()
        )
        for op, arc in expand(steps):
            _apply(service, op, arc)
            summary = summary_to_dict(service.summary())
            assert list(summary.items()) == _expected_summary(service.result())


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_pages_walk_the_live_groups(fixture, data):
    tpiin, step, expand = FIXTURES[fixture]
    setup = expand(data.draw(st.lists(step, max_size=6)))
    limit = data.draw(st.integers(min_value=1, max_value=7))
    with _served(tpiin) as service:
        for op, arc in setup:
            _apply(service, op, arc)
        start = service.result()
        quiet, after = [], None
        for _ in range(len(start.groups) + 1):
            page, after = service.groups_page(after, limit)
            assert 0 < len(page) <= limit or not start.groups
            quiet += page
            if after is None:
                break
        assert after is None, "the walk did not end"
        assert Counter(g.key() for g in quiet) == Counter(g.key() for g in start.groups)

        stayed = set(start.suspicious_trading_arcs)
        seen = {g.key() for g in start.groups}
        walked, after = [], None
        # Bounded: each page returns a group or ends the walk, and the
        # writes below add at most 2 arcs' groups per page.
        for _ in range(100 * (len(start.groups) + 1)):
            page, after = service.groups_page(after, limit)
            walked += page
            if after is None:
                break
            for op, arc in expand(data.draw(st.lists(step, max_size=2))):
                _apply(service, op, arc)
                now = service.result()
                stayed &= now.suspicious_trading_arcs
                seen |= {g.key() for g in now.groups}
        assert after is None, "the walk did not end"
        assert {g.key() for g in walked} <= seen
        assert Counter(g.key() for g in walked if g.trading_arc in stayed) == Counter(
            g.key() for g in start.groups if g.trading_arc in stayed
        )
