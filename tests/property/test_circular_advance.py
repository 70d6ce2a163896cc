"""Property: an advanced circular-trading run equals a rescan.

The daemon keeps its last ``circular-trading`` scan and, after writes,
advances it past the logged changes instead of rerunning Tarjan; it
rescans when a change may move the component partition (an add across
components, a remove of an internal arc), when its change log no longer
reaches back to the cached run, or when nothing is cached.  Two levels
are checked against a from-scratch run:

* :func:`~repro.detectors.circular.advance` on random trading networks
  (int or str nodes, self-arcs, 2-cycles below ``min_cycle_size``,
  ring merges and splits): whenever it returns a state, its findings
  and attributes equal :func:`~repro.detectors.circular.scan_rings`
  over the changed network, arcs in order;
* the daemon, on the fused province of ``test_live_reads.py`` (a
  contraction map, two original arcs fused onto one graph arc,
  intra-syndicate trades) and its CSV-loaded copy: after any sequence
  of adds and removes, every page walk of the served run equals a walk
  of a :func:`~repro.detectors.runner.run_in_context` run over the live
  arcs, ``elapsed_seconds`` aside, also with the change log cut down to
  two entries so reads fall behind it.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.base import DetectionContext, DetectorRun, FrozenTradingView
from repro.detectors.circular import (
    CircularTradingConfig,
    advance,
    ring_findings,
    scan_rings,
)
from repro.detectors.runner import run_in_context
from repro.obs.registry import get_registry
from repro.service import sharding
from repro.service.config import ServiceConfig
from repro.service.findings import FindingsRun, decode_findings_cursor, findings_page
from repro.service.sharding import ShardedDetectionService

from .test_circular_equivalence import trading_arcs
from .test_live_reads import PLAIN, SYNDICATES, TPIIN_

NAME = "circular-trading"


def _outcome(state):
    """A rescan-comparable view of one state's findings: payload bytes,
    then each finding's members and arcs in the order pages cite them."""
    outcome = ring_findings(state)
    run = DetectorRun(
        name=NAME,
        version="1.0.0",
        findings=tuple(outcome.findings),
        elapsed_seconds=0.0,
        attributes=dict(outcome.attributes),
    )
    evidence = [(f.members, f.arcs) for f in outcome.findings]
    return json.dumps(run.to_dict(), separators=(",", ":")), evidence


@st.composite
def _change(draw, state, nodes, live):
    """One change to ``live``, mostly inside a component of ``state`` so
    that ``advance`` has something to carry."""
    kind = draw(st.sampled_from(["inside", "inside", "any", "remove"]))
    if kind == "remove" and live:
        return ("remove", *draw(st.sampled_from(sorted(live, key=str))))
    if kind == "inside" and state.components:
        members = draw(st.sampled_from(state.components)).members
        return ("add", draw(st.sampled_from(members)), draw(st.sampled_from(members)))
    return ("add", draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))


@settings(max_examples=300, deadline=None)
@given(
    network=trading_arcs(),
    min_cycle_size=st.integers(min_value=2, max_value=5),
    min_balance=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_advance_equals_a_rescan(network, min_cycle_size, min_balance, data):
    nodes, arcs = network
    config = CircularTradingConfig(min_cycle_size=min_cycle_size, min_balance=min_balance)
    live = dict.fromkeys(arcs)
    state = scan_rings(FrozenTradingView(live, nodes), config)
    for _ in range(data.draw(st.integers(1, 4))):
        changes = []
        for _ in range(data.draw(st.integers(0, 4))):
            change = data.draw(_change(state, nodes, live))
            changes.append(change)
            if change[0] == "add":
                live.setdefault(change[1:])
            else:
                live.pop(change[1:], None)
        rescan = scan_rings(FrozenTradingView(live, nodes), config)
        advanced = advance(state, changes)
        if advanced is not None:
            assert _outcome(advanced) == _outcome(rescan)
            assert advanced.component_of is state.component_of
        state = rescan if advanced is None else advanced


def _fused(node):
    return TPIIN_.node_map.get(node, node)


#: The province's planted rings, each its members' ids.
RINGS = [
    [str(member) for member in component.members]
    for component in scan_rings(
        DetectionContext(tpiin=TPIIN_).trading, CircularTradingConfig()
    ).components
]
RING_NODES = sorted(member for ring in RINGS for member in ring)
#: Ring members, syndicates and their members: trades among them close,
#: merge and split rings.
FUSED_POOL = RING_NODES + sorted(SYNDICATES) + sorted(
    m for members in SYNDICATES.values() for m in members
)
PLAIN_POOL = RING_NODES + sorted(SYNDICATES)


def _pair(pool):
    return st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(
        lambda arc: _fused(arc[0]) != _fused(arc[1])
    )


#: A chord of one planted ring: inside a component while it stands.
_chord = st.sampled_from(RINGS).flatmap(
    lambda ring: st.permutations(ring).map(lambda m: [(m[0], m[1])])
)


@st.composite
def _twins(draw):
    """Two original arcs fused onto one graph arc, with a ring node."""
    syndicate = draw(st.sampled_from(sorted(SYNDICATES)))
    first, second = draw(st.permutations(SYNDICATES[syndicate]))[:2]
    other = draw(st.sampled_from(RING_NODES))
    if draw(st.booleans()):
        return [(first, other), (second, other)]
    return [(other, first), (other, second)]


_intra = st.sampled_from(sorted(SYNDICATES)).flatmap(
    lambda s: st.permutations(SYNDICATES[s]).map(lambda m: [(m[0], m[1])])
)
#: fixture -> (TPIIN, strategy of the arcs one add step adds)
FIXTURES = {
    "fused": (
        TPIIN_,
        st.one_of(_chord, _chord, _chord, _pair(FUSED_POOL).map(lambda a: [a]), _twins(), _intra),
    ),
    "plain": (PLAIN, st.one_of(_chord, _chord, _chord, _pair(PLAIN_POOL).map(lambda a: [a]))),
}


@contextlib.contextmanager
def _served(tpiin):
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(state_dir=Path(tmp), port=0, fsync=False)
        with ShardedDetectionService.open(tpiin, config) as service:
            yield service


def _walk(run_at, limit):
    """Every page of one walk; ``run_at()`` gives the run each page reads."""
    pages, token = [], None
    while True:
        cursor = None if token is None else decode_findings_cursor(token, NAME)
        page = json.loads(json.dumps(findings_page(run_at(), cursor, limit)))
        page.pop("elapsed_seconds")
        pages.append(page)
        token = page["next"]
        if token is None:
            return pages


@pytest.mark.parametrize("cap", [sharding._CHANGE_LOG_LIMIT, 2])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_served_walks_equal_a_scratch_run(fixture, cap, data):
    tpiin, adds = FIXTURES[fixture]
    live = dict.fromkeys([*tpiin.trading_arcs(), *tpiin.intra_scs_trades])
    with mock.patch.object(sharding, "_CHANGE_LOG_LIMIT", cap), _served(tpiin) as service:
        for _ in range(data.draw(st.integers(1, 6))):
            for _ in range(data.draw(st.integers(0, 3))):
                if data.draw(st.integers(0, 4)) == 0 and live:
                    arc = data.draw(st.sampled_from(sorted(live)))
                    service.remove_arc(*arc)
                    live.pop(arc)
                    continue
                for arc in data.draw(adds):
                    service.add_arc(*arc)
                    live.setdefault(arc)
            served = service.findings_run(NAME)
            context = DetectionContext(tpiin=tpiin, live_arcs=list(live))
            scratch = FindingsRun(served.seq, run_in_context(context, [NAME])[NAME])
            limit = data.draw(st.sampled_from([1, 3, 500]))
            assert _walk(lambda: service.findings_run(NAME), limit) == _walk(
                lambda: scratch, limit
            )


def _runs(mode):
    return get_registry().counter("repro_findings_runs_total", detector=NAME, mode=mode).value


def _counts():
    return _runs("scan"), _runs("advance")


def test_reads_advance_inside_a_ring_and_rescan_otherwise():
    ring = [f"CYC000_C{i}" for i in range(4)]
    other = [f"CYC001_C{i}" for i in range(4)]
    with _served(PLAIN) as service:
        scans, advances = _counts()
        service.findings_run(NAME)
        assert _counts() == (scans + 1, advances)
        # A chord of the 4-ring cannot change the partition.
        service.add_arc(ring[0], ring[2])
        service.findings_run(NAME)
        assert _counts() == (scans + 1, advances + 1)
        # Two rings joined both ways merge: only a rescan can tell.
        service.add_arc(ring[0], other[0])
        service.add_arc(other[0], ring[0])
        merged = service.findings_run(NAME)
        assert _counts() == (scans + 2, advances + 1)
        assert tuple(sorted(ring + other)) in [f.members for f in merged.run.findings]
        # The chord is internal to the merged ring, and removing an
        # internal arc may split a ring: rescanned too.
        service.remove_arc(ring[0], ring[2])
        service.findings_run(NAME)
        assert _counts() == (scans + 3, advances + 1)


def test_a_read_behind_the_change_log_rescans():
    ring = [f"CYC000_C{i}" for i in range(4)]
    with mock.patch.object(sharding, "_CHANGE_LOG_LIMIT", 2), _served(PLAIN) as service:
        service.findings_run(NAME)
        scans, advances = _counts()
        service.add_arc(ring[0], ring[2])
        service.add_arc(ring[1], ring[3])
        service.findings_run(NAME)
        assert _counts() == (scans, advances + 1)
        for arc in [(ring[2], ring[0]), (ring[3], ring[1]), (ring[0], ring[3])]:
            service.add_arc(*arc)
        service.findings_run(NAME)
        assert _counts() == (scans + 1, advances + 1)


def test_a_slow_read_does_not_replace_a_newer_run():
    """Two readers race: the older run finishes last and is not kept."""
    started, release = threading.Event(), threading.Event()
    calls = []

    def slow_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            started.set()
            release.wait(10)
        return run_in_context(*args, **kwargs)

    with _served(PLAIN) as service:
        with mock.patch.object(sharding, "run_in_context", side_effect=slow_first):
            slow = threading.Thread(target=service.findings_run, args=(NAME,))
            slow.start()
            assert started.wait(10)
            service.add_arc("CYC000_C0", "CYC000_C2")
            newer = service.findings_run(NAME)
            release.set()
            slow.join(10)
            assert not slow.is_alive()
            assert service.findings_run(NAME) is newer
            assert len(calls) == 2


def test_arcs_fused_onto_a_live_ring_arc_change_nothing():
    """A syndicate joins a ring; a second original arc onto one of its
    ring arcs, and an intra-syndicate trade, leave the ring as it is;
    removing one of two fused arcs keeps the graph arc."""
    syndicate = sorted(SYNDICATES)[0]
    first, second = SYNDICATES[syndicate][:2]
    ring = RINGS[0]
    live = dict.fromkeys([*TPIIN_.trading_arcs(), *TPIIN_.intra_scs_trades])

    def read(op, seller, buyer):
        (service.add_arc if op == "add" else service.remove_arc)(seller, buyer)
        if op == "add":
            live.setdefault((seller, buyer))
        else:
            live.pop((seller, buyer))
        served = service.findings_run(NAME)
        context = DetectionContext(tpiin=TPIIN_, live_arcs=list(live))
        scratch = FindingsRun(served.seq, run_in_context(context, [NAME])[NAME])
        assert _walk(lambda: served, 7) == _walk(lambda: scratch, 7)
        return served

    with _served(TPIIN_) as service, mock.patch.object(
        sharding, "run_in_context", wraps=run_in_context
    ) as scans:
        read("add", ring[0], first)
        read("add", first, ring[1])
        joined = service.findings_run(NAME).run.findings
        assert any(syndicate in finding.members for finding in joined)
        assert scans.call_count == 2
        held = read("add", second, ring[1])
        read("add", first, second)
        read("remove", first, ring[1])
        assert scans.call_count == 2, "a no-op change was rescanned"
        assert service.findings_run(NAME).run.findings == held.run.findings
        read("remove", second, ring[1])
        assert scans.call_count == 3


def test_racing_reads_under_writes_never_cache_an_older_run():
    """Readers race a writer that closes chords (advances) and joins
    rings (rescans): the cached run's sequence number never goes back,
    and the last run equals a rescan."""
    writes = [(a, b) for ring in RINGS for a in ring for b in ring if a != b]
    for first, second in zip(RINGS, RINGS[1:]):
        writes += [(first[0], second[0]), (second[0], first[0])]
    samples: list[list[int]] = [[] for _ in range(4)]
    stop = threading.Event()
    with _served(PLAIN) as service:

        def read(seen):
            while not stop.is_set():
                service.findings_run(NAME)
                seen.append(service._findings_runs[NAME].seq)

        readers = [threading.Thread(target=read, args=(seen,)) for seen in samples]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for arc in writes:
                service.add_arc(*arc)
        finally:
            stop.set()
            for reader in readers:
                reader.join(30)
            sys.setswitchinterval(switch)
        assert not any(reader.is_alive() for reader in readers)
        for seen in samples:
            assert seen and seen == sorted(seen), "an older run replaced a newer one"
        served = service.findings_run(NAME)
        live = dict.fromkeys([*PLAIN.trading_arcs(), *writes])
        context = DetectionContext(tpiin=PLAIN, live_arcs=list(live))
        scratch = FindingsRun(served.seq, run_in_context(context, [NAME])[NAME])
        assert _walk(lambda: served, 500) == _walk(lambda: scratch, 500)
