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
  stayed live;
* walking a detector's findings pages gives its batch findings, every
  page within its item budget and one detector run per quiet walk, and
  with writes between pages never repeats or skips a finding whose
  score and members held, nor an item of it that stayed.

The last three also run on a CSV-loaded copy of the province, which has
no contraction map.

The streams mix contracted-syndicate arcs (both endpoints in one
syndicate, or one syndicate member trading out), repeated ops, and the
removal of one of two original arcs fused onto one graph arc.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

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
from repro.errors import MiningError
from repro.fusion.pipeline import fuse
from repro.graph.traversal import weakly_connected_components
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.results_io import _header, summary_to_dict
from repro.mining.detector import detect
from repro.model.colors import EColor, VColor
from repro.service import sharding
from repro.service.config import ServiceConfig
from repro.service.findings import FindingsRun, decode_findings_cursor, findings_page
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
                assert _without_elapsed(service.findings_run(name).run.to_dict()) == (
                    _without_elapsed(batch[name].to_dict())
                )
            iat = service.findings_run("iat-groups").run.to_dict()
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


#: Every portfolio detector, and the page budgets the walks use.
DETECTOR_NAMES = ("circular-trading", "iat-groups", "missing-trader", "shared-household")
LIMITS = (1, 2, 7, 500)


def _finding_id(kind, members):
    text = "\x1f".join([kind, *members])
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _findings_page(service, name, token, limit):
    """One findings page as the wire carries it, checked against its budget."""
    cursor = None if token is None else decode_findings_cursor(token, name)
    page = json.loads(json.dumps(findings_page(service.findings_run(name), cursor, limit)))
    # A finding with no evidence still costs one item.
    cost = sum(max(len(e["members"]) + len(e["arcs"]), 1) for e in page["findings"])
    assert cost <= limit
    if page["next"] is not None:
        assert cost == limit, "a page before the last one must be full"
    return page


def _join(entries):
    """Findings of a quiet walk: a cut finding continues in the next entry,
    under the same header."""
    joined = []
    for entry in entries:
        header = {k: v for k, v in entry.items() if k not in ("members", "arcs")}
        if joined and (
            len(joined[-1][1]["members"]) < joined[-1][0]["member_count"]
            or len(joined[-1][1]["arcs"]) < joined[-1][0]["arc_count"]
        ):
            assert header == joined[-1][0], "a continued finding lost its header"
            joined[-1][1]["members"] += entry["members"]
            joined[-1][1]["arcs"] += entry["arcs"]
            continue
        finding = {k: v for k, v in header.items() if k not in ("member_count", "arc_count")}
        joined.append((header, {**finding, "members": entry["members"], "arcs": entry["arcs"]}))
    for header, finding in joined:
        assert len(finding["members"]) == header["member_count"]
        assert len(finding["arcs"]) == header["arc_count"]
    return [finding for _, finding in joined]


def _walk(service, name, limit, between=None):
    """Every entry of one findings walk; ``between()`` runs between pages."""
    entries, token = [], None
    # Bounded: each page holds an item or ends the walk, and a run of
    # the fixtures holds well under 1,000 items.
    for _ in range(1000):
        page = _findings_page(service, name, token, limit)
        assert page["detector"] == name
        entries += page["findings"]
        token = page["next"]
        if token is None:
            return entries
        if between is not None:
            between()
    raise AssertionError("the walk did not end")


def _live_arcs(tpiin, ops):
    live = dict.fromkeys([*tpiin.trading_arcs(), *tpiin.intra_scs_trades])
    for op, arc in ops:
        if op == "add":
            live.setdefault(arc)
        else:
            live.pop(arc, None)
    return list(live)


@pytest.mark.parametrize("name", DETECTOR_NAMES)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_quiet_findings_walks_equal_the_batch_run(fixture, name, data):
    tpiin, step, expand = FIXTURES[fixture]
    ops = expand(data.draw(st.lists(step, max_size=6)))
    batch = run_detectors(tpiin.with_trading_arcs(_live_arcs(tpiin, ops)), [name])
    # As the wire carries it: a tuple detail reads back as a list.
    expected = json.loads(json.dumps(batch[name].to_dict()["findings"]))
    with _served(tpiin) as service:
        for op, arc in ops:
            _apply(service, op, arc)
        with mock.patch.object(
            sharding, "run_in_context", wraps=sharding.run_in_context
        ) as runs:
            for limit in LIMITS:
                walked = _join(_walk(service, name, limit))
                assert [
                    {k: v for k, v in f.items() if k != "id"} for f in walked
                ] == expected
                assert [f["id"] for f in walked] == [
                    _finding_id(f["kind"], f["members"]) for f in expected
                ]
        assert runs.call_count == 1, "a quiet walk ran the detector more than once"
        keys = service.findings_run(name).keys()
        assert keys == sorted(keys), "the pager's sort key is not the detector's order"


def _held(name, runs):
    """Findings whose id and score held across ``runs``, one per id in each:
    id -> (members, arcs in every run).  An ``iat-groups`` finding must
    also keep its trade: two trades between one pair share an id."""
    seen = []
    for run in runs:
        pager = FindingsRun(0, run)
        by_id = {}
        for index, finding in enumerate(run.findings):
            finding_id = pager.evidence(index)[0]
            arcs = {(str(a), str(b)) for a, b in finding.arcs}
            trade = finding.arcs[0] if name == "iat-groups" else None
            by_id.setdefault(finding_id, []).append(
                (finding.score, trade, [str(m) for m in finding.members], arcs)
            )
        seen.append(by_id)
    held = {}
    for finding_id, versions in seen[0].items():
        if len(versions) != 1:
            continue
        score, trade, members, arcs = versions[0]
        for by_id in seen[1:]:
            later = by_id.get(finding_id, ())
            if len(later) != 1 or later[0][:2] != (score, trade):
                break
            arcs = arcs & later[0][3]
        else:
            held[finding_id] = (members, arcs)
    return held


@pytest.mark.parametrize("name", DETECTOR_NAMES)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_findings_walks_with_writes_between_pages(fixture, name, data):
    tpiin, step, expand = FIXTURES[fixture]
    setup = expand(data.draw(st.lists(step, max_size=4)))
    limit = data.draw(st.sampled_from(LIMITS))
    with _served(tpiin) as service:
        for op, arc in setup:
            _apply(service, op, arc)
        runs = [service.findings_run(name).run]

        def write():
            for op, arc in expand(data.draw(st.lists(step, max_size=2))):
                _apply(service, op, arc)
            runs.append(service.findings_run(name).run)

        entries = _walk(service, name, limit, between=write)
    walked = {}
    for entry in entries:
        members, arcs = walked.setdefault(entry["id"], ([], []))
        members += entry["members"]
        arcs += [tuple(arc) for arc in entry["arcs"]]
    for finding_id, (members, stayed) in _held(name, runs).items():
        assert finding_id in walked, "a finding that held was skipped"
        got_members, got_arcs = walked[finding_id]
        assert got_members == members, "a member was repeated or skipped"
        assert len(got_arcs) == len(set(got_arcs)), "an arc was repeated"
        assert stayed <= set(got_arcs), "an arc that stayed was skipped"


#: One run per detector of the fused province, at sequence number 3.
FINDINGS_RUNS = {
    name: FindingsRun(3, run_detectors(TPIIN_, [name])[name]) for name in DETECTOR_NAMES
}


def _token(fields):
    raw = json.dumps(fields).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


_field = st.one_of(
    st.integers(-1, 4),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.text(max_size=2), st.floats(), st.integers(-1, 1)), max_size=3),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(DETECTOR_NAMES), data=st.data())
def test_forged_findings_cursors_are_refused_or_placed(name, data):
    """A real token with any field forged is refused with a
    :class:`MiningError` (a 400), or places a page; with only its
    sequence number changed it always places one."""
    run = FINDINGS_RUNS[name]
    index = data.draw(st.integers(0, len(run.run.findings) - 1))
    finding = run.run.findings[index]
    offset = data.draw(st.integers(0, len(finding.members) + len(finding.arcs) - 1))
    fields = json.loads(base64.urlsafe_b64decode(run.cursor_at(index, offset).encode() + "=="))
    forge = data.draw(st.sampled_from(["seq", "field", "text"]))
    if forge == "seq":
        fields[0] = data.draw(st.integers(0, 6))
        findings_page(run, decode_findings_cursor(_token(fields), name), 7)
        return
    if forge == "field":
        at = data.draw(st.integers(0, len(fields)))
        fields[at : at + 1] = data.draw(st.lists(_field, max_size=2))
        token = _token(fields)
    else:
        token = data.draw(st.text(max_size=40))
    try:
        cursor = decode_findings_cursor(token, name)
    except MiningError:
        return
    with contextlib.suppress(MiningError):
        findings_page(run, cursor, 7)
