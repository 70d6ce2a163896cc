"""Findings pages over hand-built detector runs: cuts, tokens and drift.

``tests/property/test_live_reads.py`` walks real detector runs over a
live daemon; these cases pin the placement rules one at a time.
"""

import base64
import json
import sys
import threading

import pytest

from repro.detectors import run_detectors
from repro.detectors.base import DetectorRun, Finding
from repro.errors import MiningError
from repro.service.config import ServiceConfig
from repro.service.findings import (
    FindingsCursor,
    FindingsRun,
    decode_findings_cursor,
    findings_page,
)
from repro.service.sharding import ShardedDetectionService


def ring(score, members, arcs=None):
    arcs = arcs if arcs is not None else list(zip(members, members[1:] + members[:1]))
    return Finding(
        detector="circular-trading",
        kind="circular-trading-ring",
        members=tuple(members),
        arcs=tuple(arcs),
        score=score,
        summary=f"{len(members)} companies",
    )


def run_of(seq, *findings):
    ordered = sorted(findings, key=lambda f: (-f.score, f.members))
    return FindingsRun(
        seq, DetectorRun("circular-trading", "1.0.0", tuple(ordered), 0.001)
    )


def page(run, token, limit):
    cursor = None if token is None else decode_findings_cursor(token, run.run.name)
    return json.loads(json.dumps(findings_page(run, cursor, limit)))


def items(entry):
    return entry["members"] + [tuple(arc) for arc in entry["arcs"]]


A = ring(0.9, ["A1", "A2", "A3"])
B = ring(0.8, ["B1", "B2", "B3", "B4"])
C = ring(0.8, ["C1", "C2"])


def test_a_page_is_cut_inside_a_finding_and_resumes_under_its_header():
    run = run_of(5, A, B, C)
    first = page(run, None, 8)
    # A's 6 items, then 2 of B's 8.
    assert [len(items(e)) for e in first["findings"]] == [6, 2]
    second = page(run, first["next"], 8)
    assert second["findings"][0]["id"] == first["findings"][1]["id"]
    assert second["findings"][0]["summary"] == B.summary
    assert items(first["findings"][1]) + items(second["findings"][0]) == (
        ["B1", "B2", "B3", "B4"] + sorted(B.arcs)
    )
    assert second["finding_count"] == 3


def test_the_token_is_small_and_carries_no_member_list():
    big = ring(0.5, [f"N{i:05d}" for i in range(3000)])
    run = run_of(9, A, big)
    token = page(run, None, 10)["next"]
    cursor = decode_findings_cursor(token, "circular-trading")
    # After A comes the big ring: a different score orders it.
    assert cursor.after == (-0.5,)
    assert cursor.last == ("N00003",)
    assert len(token) < 120


def test_after_a_write_a_new_finding_before_the_cut_one_is_skipped():
    run = run_of(5, A, B, C)
    token = page(run, None, 8)["next"]  # cut inside B, after B2
    newer = ring(0.8, ["B0"])  # same score as B, sorts before it
    later = run_of(6, A, newer, B, C)
    rest = page(later, token, 100)["findings"]
    assert [e["summary"] for e in rest] == [B.summary, C.summary]
    assert rest[0]["members"] == ["B3", "B4"]


def test_after_a_write_a_finding_that_lost_its_tail_is_done():
    run = run_of(5, A, B, C)
    shrunk = ring(0.8, ["B1", "B2", "B3", "B4"], arcs=[("B1", "B2")])
    later = run_of(6, A, shrunk, C)
    after_members = page(run, None, 8)["next"]  # A's 6 items, B1 and B2
    assert page(later, after_members, 1)["findings"][0]["members"] == ["B3"]
    after_arcs = page(run, None, 13)["next"]  # then B3, B4 and 3 of B's arcs
    assert decode_findings_cursor(after_arcs, "circular-trading").last == ("B3", "B4")
    # Every arc of the shrunk B sorts before the last one sent.
    rest = page(later, after_arcs, 100)["findings"]
    assert [e["summary"] for e in rest] == [C.summary]


def test_after_a_write_a_cut_finding_that_changed_score_restarts_in_place():
    run = run_of(5, A, B, C)
    token = page(run, None, 8)["next"]
    moved = ring(0.3, ["B1", "B2", "B3", "B4"])
    later = run_of(6, A, C, moved)
    rest = page(later, token, 100)["findings"]
    # C held its score and members, so it is not skipped; B did not.
    assert [e["summary"] for e in rest] == [C.summary, moved.summary]
    assert rest[1]["members"] == ["B1", "B2", "B3", "B4"]


def test_a_token_of_the_same_sequence_number_must_name_an_item():
    run = run_of(5, A, B)
    for index, offset in ((2, 0), (1, 8), (0, 99)):
        cursor = FindingsCursor(5, index, offset, (-0.9,), "x", 0.9, ("A1",))
        with pytest.raises(MiningError):
            findings_page(run, cursor, 3)
    # One naming B's first item, but with A's key: not this run's.
    with pytest.raises(MiningError):
        findings_page(run, FindingsCursor(5, 1, 0, (-0.9,)), 3)


def test_a_finding_with_no_evidence_costs_one_item():
    empty = Finding(detector="circular-trading", kind="k", members=(), score=0.1)
    run = run_of(1, A, empty, empty, empty)
    first = page(run, None, 7)
    assert len(first["findings"]) == 2
    assert first["next"] is not None


@pytest.mark.parametrize(
    "fields",
    [
        [1, 0, 0],
        [1, 0, 0, []],
        [1, 0, 0, ["x"]],
        [1, -1, 0, [-0.5]],
        [1, 0, 2, [-0.5]],
        [1, 0, 2, [-0.5], "id", "0.5", ["A"]],
        [1, 0, 2, [-0.5], "id", 0.5, ["A", "B", "C"]],
        [1, 0, 0, [-0.5], "id", 0.5, ["A"]],
        [True, 0, 0, [-0.5]],
        {"seq": 1},
    ],
)
def test_malformed_tokens_are_refused(fields):
    token = base64.urlsafe_b64encode(json.dumps(fields).encode()).decode().rstrip("=")
    with pytest.raises(MiningError):
        decode_findings_cursor(token, "circular-trading")


def test_an_iat_token_keys_on_the_trade():
    with pytest.raises(MiningError):
        decode_findings_cursor(FindingsCursor(1, 0, 0, (-0.5,)).encode(), "iat-groups")
    cursor = FindingsCursor(1, 0, 0, ("C1", "C2"))
    assert decode_findings_cursor(cursor.encode(), "iat-groups") == cursor


def test_concurrent_walks_and_writes_keep_the_run_cache_current(fig8, tmp_path):
    """Readers walk findings pages on more threads than cores while a
    writer flips one arc; once the writer stops, every read reflects
    the last write, and no page ever exceeds its budget."""
    config = ServiceConfig(state_dir=tmp_path / "state", port=0, fsync=False)
    errors, stop = [], threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ShardedDetectionService.open(fig8, config) as service:

            def read():
                try:
                    while not stop.is_set():
                        token = None
                        while True:
                            cursor = token and decode_findings_cursor(token, "iat-groups")
                            run = service.findings_run("iat-groups")
                            body = findings_page(run, cursor, 2)
                            assert sum(len(items(e)) for e in body["findings"]) <= 2
                            token = body["next"]
                            if token is None:
                                break
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for _ in range(25):
                service.remove_arc("C3", "C5")
                service.add_arc("C3", "C5")
            service.remove_arc("C3", "C5")
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)
            assert not any(reader.is_alive() for reader in readers)
            assert errors == []
            served = service.findings_run("iat-groups").run.findings
            expected = run_detectors(
                fig8.with_trading_arcs(
                    [arc for arc in fig8.trading_arcs() if arc != ("C3", "C5")]
                ),
                ["iat-groups"],
            )["iat-groups"].findings
            assert [f.members for f in served] == [f.members for f in expected]
    finally:
        sys.setswitchinterval(interval)
