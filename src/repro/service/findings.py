"""Bounded findings reads: one detector run, served a page at a time.

``GET /v1/result?detector={name}`` pages the run's findings by an item
budget: a page holds at most ``limit`` evidence items (members plus
arcs), across whole findings.  Each entry is the finding's header
(:meth:`~repro.detectors.base.Finding.to_dict` without its arrays, plus
a short ``id``, ``member_count`` and ``arc_count``) followed by its
slices of ``members`` and then ``arcs``, both in ``to_dict`` order.  A
finding that does not fit is cut and continues on the next page under
the same header; a finding with no evidence still costs one item, so a
page never holds more than ``limit`` entries.

The daemon keeps the newest run per detector (:class:`FindingsRun`),
keyed on the WAL sequence number it was computed at, so a walk with no
writes between its pages runs the detector once.  The ``next`` token
is opaque and small: that sequence number, the position of the next
item, and the least prefix of the next finding's sort key that still
sorts it after the finding before it.  Every detector emits its
findings in a total order on a key of the finding's own (score and
members, or the certified trade for ``iat-groups``), so after a write
the walk resumes at that prefix in the new run: it never repeats or
skips a finding whose score and members held.  A token cut inside a
finding also carries its ``id``, its score and the last item sent, so
the rest of that finding resumes after that item whenever the finding
held.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.detectors.base import DetectorRun, Finding
from repro.errors import MiningError
from repro.graph.digraph import Node
from repro.mining.detector import IAT_DETECTOR_NAME

__all__ = ["FindingsCursor", "FindingsRun", "decode_findings_cursor", "findings_page"]

#: One finding's sort key: ``(-score, *members)``, or for ``iat-groups``
#: the certified trade ``(seller, buyer)``; members and ends as ``str``.
_Key = tuple[float | str, ...]
_Arc = tuple[Node, Node]


def _str_arc(arc: _Arc) -> tuple[str, str]:
    return str(arc[0]), str(arc[1])


@dataclass(frozen=True, slots=True)
class FindingsCursor:
    """A decoded ``next`` token: where a findings walk resumes.

    ``seq``, ``index`` and ``offset`` place the next item in the run the
    token came from; ``after`` places it in any later run.  ``id``,
    ``score`` and ``last`` are set only when ``offset`` is inside a
    finding (``offset > 0``).
    """

    seq: int
    index: int
    offset: int
    after: _Key
    id: str | None = None
    score: float | None = None
    last: tuple[str, ...] | None = None

    def encode(self) -> str:
        """Unpadded base64url of the compact JSON list of the fields."""
        fields = [self.seq, self.index, self.offset, list(self.after)]
        if self.offset:
            fields += [self.id, self.score, list(self.last or ())]
        raw = json.dumps(fields, separators=(",", ":")).encode("utf-8")
        return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_strs(values: Sequence[object]) -> bool:
    return all(isinstance(value, str) for value in values)


def decode_findings_cursor(token: str, detector: str) -> FindingsCursor:
    """Invert :meth:`FindingsCursor.encode` for ``detector``'s key shape;
    anything else is a :class:`MiningError`."""
    malformed = MiningError(f"malformed cursor {token!r}")
    try:
        fields = json.loads(base64.urlsafe_b64decode(token + "=" * (-len(token) % 4)))
    except (ValueError, TypeError):
        raise malformed from None
    if not isinstance(fields, list) or len(fields) not in (4, 7):
        raise malformed
    seq, index, offset, after = fields[:4]
    if not (_is_count(seq) and _is_count(index) and _is_count(offset)):
        raise malformed
    if not isinstance(after, list) or not after or len(fields) != (7 if offset else 4):
        raise malformed
    if detector == IAT_DETECTOR_NAME:
        key_ok = len(after) <= 2 and _is_strs(after)
    else:
        key_ok = _is_number(after[0]) and _is_strs(after[1:])
    if not key_ok:
        raise malformed
    if not offset:
        return FindingsCursor(seq, index, 0, tuple(after))
    finding_id, score, last = fields[4:]
    if not (
        isinstance(finding_id, str)
        and _is_number(score)
        and isinstance(last, list)
        and len(last) in (1, 2)
        and _is_strs(last)
    ):
        raise malformed
    return FindingsCursor(seq, index, offset, tuple(after), finding_id, score, tuple(last))


class FindingsRun:
    """One detector run at a WAL sequence number, ready to be paged.

    Each finding's id and ``str``-sorted arcs are built the first time a
    page reaches it, and the sort keys of every finding only when a
    token from an older run needs placing.  HTTP threads share the
    object: a value two threads build at once is built twice, equal.
    """

    __slots__ = ("seq", "run", "_evidence", "_keys")

    def __init__(self, seq: int, run: DetectorRun) -> None:
        self.seq = seq
        self.run = run
        self._evidence: dict[int, tuple[str, tuple[_Arc, ...]]] = {}
        self._keys: list[_Key] | None = None

    def evidence(self, index: int) -> tuple[str, tuple[_Arc, ...]]:
        """``(id, arcs)`` of one finding: the id digests its kind and
        members; the arcs are sorted as ``to_dict`` sorts them."""
        cached = self._evidence.get(index)
        if cached is None:
            finding = self.run.findings[index]
            text = "\x1f".join([finding.kind, *map(str, finding.members)])
            finding_id = hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
            arcs = finding.arcs
            # Pairs of str sort as to_dict sorts them, without a key
            # call per arc (3x faster on an 11,732-arc ring).
            if all(type(a) is str and type(b) is str for a, b in arcs):
                ordered = sorted(arcs)
            else:
                ordered = sorted(arcs, key=_str_arc)
            cached = (finding_id, tuple(ordered))
            self._evidence[index] = cached
        return cached

    def key(self, finding: Finding) -> _Key:
        if self.run.name == IAT_DETECTOR_NAME:
            return _str_arc(finding.arcs[0])
        return (-finding.score, *map(str, finding.members))

    def keys(self) -> list[_Key]:
        if self._keys is None:
            self._keys = [self.key(finding) for finding in self.run.findings]
        return self._keys

    def cursor_at(self, index: int, offset: int) -> FindingsCursor:
        """The token of the item at ``(index, offset)``."""
        findings = self.run.findings
        key = self.key(findings[index])
        width = 1
        if index:
            before = self.key(findings[index - 1])
            while width <= min(len(key), len(before)) and key[width - 1] == before[width - 1]:
                width += 1
        if not offset:
            return FindingsCursor(self.seq, index, 0, key[:width])
        finding = findings[index]
        finding_id, arcs = self.evidence(index)
        members = len(finding.members)
        last = (
            (str(finding.members[offset - 1]),)
            if offset <= members
            else _str_arc(arcs[offset - 1 - members])
        )
        return FindingsCursor(
            self.seq, index, offset, key[:width], finding_id, finding.score, last
        )

    def locate(self, cursor: FindingsCursor) -> tuple[int, int]:
        """``(index, offset)`` of the item ``cursor`` names in this run."""
        findings = self.run.findings
        width = len(cursor.after)
        if cursor.seq == self.seq:
            # Same sequence number, same live arcs: the same run.
            index, offset = cursor.index, cursor.offset
            if index < len(findings) and offset < self._items(index):
                if self.key(findings[index])[:width] == cursor.after:
                    return index, offset
            raise MiningError("malformed cursor: it names no item of this run")
        keys = self.keys()
        index = bisect.bisect_left(keys, cursor.after)
        if cursor.offset:
            # Findings between the prefix and the cut one are new: skip
            # to the cut one if its score and members held.
            for at in range(index, len(keys)):
                if keys[at][:width] != cursor.after:
                    break
                if findings[at].score == cursor.score and self.evidence(at)[0] == cursor.id:
                    return self._after_item(at, cursor.last or ())
        return index, 0

    def _items(self, index: int) -> int:
        finding = self.run.findings[index]
        return len(finding.members) + len(finding.arcs)

    def _after_item(self, index: int, last: tuple[str, ...]) -> tuple[int, int]:
        finding = self.run.findings[index]
        if len(last) == 1:
            offset = bisect.bisect_right(finding.members, last[0], key=str)
        else:
            arcs = self.evidence(index)[1]
            offset = len(finding.members) + bisect.bisect_right(arcs, last, key=_str_arc)
        if offset >= self._items(index):
            return index + 1, 0
        return index, offset


def _entry(
    finding: Finding, finding_id: str, arcs: tuple[_Arc, ...], start: int, stop: int
) -> dict[str, object]:
    """Items ``[start, stop)`` of one finding under its header."""
    members = len(finding.members)
    entry: dict[str, object] = {
        "detector": finding.detector,
        "kind": finding.kind,
        "score": round(finding.score, 6),
        "summary": finding.summary,
    }
    if finding.details:
        entry["details"] = {key: value for key, value in finding.details}
    entry["id"] = finding_id
    entry["member_count"] = members
    entry["arc_count"] = len(arcs)
    entry["members"] = [str(node) for node in finding.members[start:stop]]
    entry["arcs"] = [
        _str_arc(arc) for arc in arcs[max(start - members, 0) : max(stop - members, 0)]
    ]
    return entry


def findings_page(
    run: FindingsRun, cursor: FindingsCursor | None, limit: int
) -> dict[str, object]:
    """One page of ``run``: at most ``limit`` items from ``cursor`` on.

    ``next`` is ``None`` after the last item.
    """
    index, offset = (0, 0) if cursor is None else run.locate(cursor)
    findings = run.run.findings
    page: list[dict[str, object]] = []
    budget = limit
    while budget > 0 and index < len(findings):
        finding = findings[index]
        finding_id, arcs = run.evidence(index)
        items = len(finding.members) + len(arcs)
        stop = min(items, offset + budget)
        page.append(_entry(finding, finding_id, arcs, offset, stop))
        budget -= max(stop - offset, 1)
        if stop < items:
            offset = stop
            break
        index, offset = index + 1, 0
    return {
        "detector": run.run.name,
        "version": run.run.version,
        "elapsed_seconds": round(run.run.elapsed_seconds, 6),
        "attributes": dict(run.run.attributes),
        "finding_count": len(findings),
        "findings": page,
        "next": (
            run.cursor_at(index, offset).encode() if index < len(findings) else None
        ),
    }
