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
  rebuilt network (both count fused arcs, not original ones).

The streams mix contracted-syndicate arcs (both endpoints in one
syndicate, or one syndicate member trading out), repeated ops, and the
removal of one of two original arcs fused onto one graph arc.
"""

from __future__ import annotations

import dataclasses
import tempfile
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
