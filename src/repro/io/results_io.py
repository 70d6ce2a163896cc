"""Detection-result persistence: the paper's output files plus JSON.

Algorithm 1 emits per-subTPIIN files ``susGroup(i)`` (all suspicious
groups mined from the i-th subTPIIN) and ``susTrade(i)`` (the suspicious
trading arcs).  :func:`write_sus_files` reproduces that layout for the
faithful and parallel engines, which both keep per-subTPIIN results,
and writes a single aggregated pair for a result without per-subTPIIN
data (the streaming :class:`~repro.mining.incremental.IncrementalDetector`'s).
:func:`write_detection_json` / :func:`read_detection_json` round-trip
the full result for downstream tooling; :func:`summary_to_dict` is the
serving daemon's ``GET /v1/result`` body, that document's header.

Both file writers stream: they walk the groups once as rows (trading
trail, support trail, kind) and write pre-rendered text to the open
file in chunks, never holding the whole document.
:func:`write_detection_json`'s bytes equal ``json.dumps(payload,
indent=2)`` of the payload dict its docstring spells out; CPython
encodes that call with its pure-Python encoder (the C one only serves
``indent=None``), which made it the costliest stage of a batch audit.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.errors import MiningError, SerializationError
from repro.graph.digraph import Node
from repro.mining.groups import (
    GroupKind,
    SuspiciousGroup,
    render_trails,
    trails_are_simple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mining.detector import DetectionResult
    from repro.mining.incremental import DetectionSummary

__all__ = [
    "summary_to_dict",
    "write_sus_files",
    "write_detection_json",
    "read_detection_json",
    "group_to_dict",
    "group_from_dict",
]

#: One group as the file writers read it.
_GroupRow = tuple[tuple[Node, ...], tuple[Node, ...], GroupKind]

#: Rows rendered per ``write`` call.
_CHUNK_ROWS = 2048

_row_of = attrgetter("trading_trail", "support_trail", "kind")


def _group_rows(groups: Iterable[SuspiciousGroup]) -> Iterator[_GroupRow]:
    """The ``(trading_trail, support_trail, kind)`` row of each group, in order."""
    return map(_row_of, groups)


def write_sus_files(result: "DetectionResult", directory: Path) -> list[Path]:
    """Write ``susGroup(i)`` / ``susTrade(i)`` files; returns the paths.

    Each group line is :meth:`SuspiciousGroup.render`'s, rendered from
    the group's row with one simple/complex classification.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def dump(index: str, rows: Iterable[_GroupRow]) -> None:
        group_path = directory / f"susGroup({index}).txt"
        trade_path = directory / f"susTrade({index}).txt"
        arcs: set[tuple[Node, Node]] = set()
        lines: list[str] = []
        with group_path.open("w") as handle:
            for trading, support, kind in rows:
                arcs.add((trading[-2], trading[-1]))
                simple = trails_are_simple(trading, support, kind)
                lines.append(render_trails(trading, support, kind, simple))
                if len(lines) == _CHUNK_ROWS:
                    _write_lines(handle, lines)
            _write_lines(handle, lines)
        with trade_path.open("w") as handle:
            _write_lines(
                handle,
                [
                    f"{tail} -> {head}"
                    for tail, head in sorted(arcs, key=lambda a: (str(a[0]), str(a[1])))
                ],
            )
        written.extend([group_path, trade_path])

    if result.sub_results:
        for sub in result.sub_results:
            if sub.groups:
                dump(str(sub.index), _group_rows(sub.groups))
        extras = [row for row in _group_rows(result.groups) if row[2] is GroupKind.SCS]
        if extras:
            dump("scs", extras)
    else:
        dump("all", _group_rows(result.groups))
    return written


def _write_lines(handle: IO[str], lines: list[str]) -> None:
    """Write ``lines`` newline-terminated and empty the list."""
    if lines:
        handle.write("\n".join(lines) + "\n")
        lines.clear()


def group_to_dict(group: SuspiciousGroup) -> dict[str, Any]:
    return {
        "trading_trail": [str(n) for n in group.trading_trail],
        "support_trail": [str(n) for n in group.support_trail],
        "kind": group.kind.value,
    }


def group_from_dict(payload: dict[str, Any]) -> SuspiciousGroup:
    """Revive one :func:`group_to_dict` payload.

    Every malformed payload — a missing key, a trail that is not a list
    of strings, an unknown kind, or trails that break the group
    invariants — raises :class:`~repro.errors.SerializationError`.
    """
    try:
        trading = payload["trading_trail"]
        support = payload["support_trail"]
        if not _is_str_list(trading) or not _is_str_list(support):
            raise SerializationError(
                f"group trails must be lists of strings: {payload!r}"
            )
        return SuspiciousGroup(
            trading_trail=tuple(trading),
            support_trail=tuple(support),
            kind=GroupKind(payload["kind"]),
        )
    except (KeyError, TypeError, ValueError, MiningError) as exc:
        raise SerializationError(f"malformed group payload: {payload!r}") from exc


def _is_str_list(value: Any) -> bool:
    """True for a JSON array (or tuple) whose items are all strings."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, str) for item in value
    )


def _header(result: "DetectionResult | DetectionSummary") -> list[tuple[str, Any]]:
    """The scalar entries that open a result's JSON document, in key order."""
    # One classification pass serves both counts.
    simple = result.simple_group_count
    return [
        ("detector", result.detector),
        ("detector_version", result.detector_version),
        ("engine", result.engine),
        ("subtpiin_count", result.subtpiin_count),
        ("total_trading_arcs", result.total_trading_arcs),
        ("cross_component_trades", result.cross_component_trades),
        ("pattern_trail_count", result.pattern_trail_count),
        ("simple_group_count", simple),
        ("complex_group_count", result.group_count - simple),
    ]


def _sorted_arcs(result: "DetectionResult") -> list[tuple[str, str]]:
    return sorted((str(a), str(b)) for a, b in result.suspicious_trading_arcs)


def summary_to_dict(summary: "DetectionSummary") -> dict[str, Any]:
    """The JSON-ready summary of a live result: the header of its
    :func:`write_detection_json` document plus the group and
    suspicious-arc counts, in place of the two arrays."""
    payload = dict(_header(summary))
    payload["group_count"] = summary.group_count
    payload["suspicious_arc_count"] = summary.suspicious_arc_count
    return payload


class _Labels(dict[Node, str]):
    """Node -> its JSON string literal, encoded on first use."""

    def __missing__(self, node: Node) -> str:
        encoded = self[node] = encode_basestring_ascii(str(node))
        return encoded


# ``json.dumps(..., indent=2)``'s layout for an arc and a group entry.
_ARC_OPEN = "    [\n      "
_ARC_SEP = ",\n      "
_ARC_CLOSE = "\n    ]"
_GROUP_OPEN = '    {\n      "trading_trail": [\n        '
_TRAIL_SEP = ",\n        "
_GROUP_SUPPORT = '\n      ],\n      "support_trail": [\n        '
_GROUP_KIND = '\n      ],\n      "kind": '
_GROUP_CLOSE = "\n    }"
_KIND_JSON = {kind: json.dumps(kind.value) for kind in GroupKind}


def write_detection_json(result: "DetectionResult", path: str | Path) -> Path:
    """Serialize a detection result (groups, counts, metadata) as JSON.

    Streams the bytes of ``json.dumps(payload, indent=2)`` for the
    payload dict of the header entries (``detector`` through
    ``complex_group_count``), then ``suspicious_trading_arcs`` (sorted
    ``[seller, buyer]`` label pairs) and ``groups``
    (:func:`group_to_dict` of each group, in order): the header value by
    value, then each arc and group as pre-indented text, written in
    chunks.  Each distinct node label is encoded once.  Group trails
    are never empty (the :class:`SuspiciousGroup` invariants), so only
    the two top-level arrays take ``json``'s empty form ``[]``.
    """
    path = Path(path)
    label = _Labels().__getitem__
    with path.open("w") as handle:
        handle.write("{\n")
        for key, value in _header(result):
            handle.write(f'  "{key}": {json.dumps(value)},\n')
        handle.write('  "suspicious_trading_arcs": ')
        _write_array(
            handle,
            (
                _ARC_OPEN + label(tail) + _ARC_SEP + label(head) + _ARC_CLOSE
                for tail, head in _sorted_arcs(result)
            ),
        )
        handle.write(',\n  "groups": ')
        _write_array(
            handle,
            (
                _GROUP_OPEN
                + _TRAIL_SEP.join(map(label, trading))
                + _GROUP_SUPPORT
                + _TRAIL_SEP.join(map(label, support))
                + _GROUP_KIND
                + _KIND_JSON[kind]
                + _GROUP_CLOSE
                for trading, support, kind in _group_rows(result.groups)
            ),
        )
        handle.write("\n}")
    return path


def _write_array(handle: IO[str], items: Iterator[str]) -> None:
    """Write a top-level array of pre-indented ``items`` as ``json`` would."""
    chunk = list(islice(items, _CHUNK_ROWS))
    if not chunk:
        handle.write("[]")
        return
    handle.write("[\n")
    while True:
        handle.write(",\n".join(chunk))
        chunk = list(islice(items, _CHUNK_ROWS))
        if not chunk:
            break
        handle.write(",\n")
    handle.write("\n  ]")


def read_detection_json(path: str | Path) -> dict[str, Any]:
    """Load a detection JSON back into a plain dictionary.

    Groups are revived as :class:`SuspiciousGroup` under the ``groups``
    key; the remaining entries stay primitive.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise SerializationError(f"{path}: expected a JSON object at top level")
    groups = payload.get("groups", [])
    arcs = payload.get("suspicious_trading_arcs", [])
    if not isinstance(groups, list) or not isinstance(arcs, list):
        raise SerializationError(f"{path}: groups/arcs must be JSON arrays")
    payload["groups"] = [group_from_dict(g) for g in groups]
    for arc in arcs:
        if not (_is_str_list(arc) and len(arc) == 2):
            raise SerializationError(
                f"{path}: each suspicious trading arc must be a list of "
                f"two strings, got {arc!r}"
            )
    payload["suspicious_trading_arcs"] = {(a, b) for a, b in arcs}
    return payload
