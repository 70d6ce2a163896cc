"""Detection-result persistence: the paper's output files plus JSON.

Algorithm 1 emits per-subTPIIN files ``susGroup(i)`` (all suspicious
groups mined from the i-th subTPIIN) and ``susTrade(i)`` (the suspicious
trading arcs).  :func:`write_sus_files` reproduces that layout for the
faithful and parallel engines, which both keep per-subTPIIN results,
and writes a single aggregated pair for the incremental engine, which
does not.  :func:`write_detection_json` /
:func:`read_detection_json` round-trip the full result for downstream
tooling.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import MiningError, SerializationError
from repro.graph.gcpause import gc_paused
from repro.mining.groups import GroupKind, SuspiciousGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mining.detector import DetectionResult

__all__ = [
    "detection_to_dict",
    "write_sus_files",
    "write_detection_json",
    "read_detection_json",
    "group_to_dict",
    "group_from_dict",
]


def write_sus_files(result: "DetectionResult", directory: Path) -> list[Path]:
    """Write ``susGroup(i)`` / ``susTrade(i)`` files; returns the paths.

    Runs with the cyclic collector paused: the rendered lines and arc
    sets are acyclic and garbage once each file is written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def dump(index: str, groups: Sequence[SuspiciousGroup]) -> None:
        group_path = directory / f"susGroup({index}).txt"
        trade_path = directory / f"susTrade({index}).txt"
        with group_path.open("w") as handle:
            for group in groups:
                handle.write(group.render() + "\n")
        with trade_path.open("w") as handle:
            for tail, head in sorted(
                {g.trading_arc for g in groups}, key=lambda a: (str(a[0]), str(a[1]))
            ):
                handle.write(f"{tail} -> {head}\n")
        written.extend([group_path, trade_path])

    with gc_paused():
        if result.sub_results:
            for sub in result.sub_results:
                if sub.groups:
                    dump(str(sub.index), sub.groups)
            extras = [
                g for g in result.groups if g.kind in (GroupKind.SCS,)
            ]
            if extras:
                dump("scs", extras)
        else:
            dump("all", result.groups)
    return written


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


def detection_to_dict(result: "DetectionResult") -> dict[str, Any]:
    """The JSON-ready payload for a detection result.

    Shared by :func:`write_detection_json` and the serving daemon's
    ``GET /result`` endpoint so the on-disk and over-the-wire formats
    cannot drift.  Builds with the cyclic collector paused: one dict
    and two lists per group, all acyclic and garbage once serialized.
    """
    with gc_paused():
        # One classification pass serves both counts.
        simple = result.simple_group_count
        return {
            "detector": result.detector,
            "detector_version": result.detector_version,
            "engine": result.engine,
            "subtpiin_count": result.subtpiin_count,
            "total_trading_arcs": result.total_trading_arcs,
            "cross_component_trades": result.cross_component_trades,
            "pattern_trail_count": result.pattern_trail_count,
            "simple_group_count": simple,
            "complex_group_count": result.group_count - simple,
            "suspicious_trading_arcs": sorted(
                [str(a), str(b)] for a, b in result.suspicious_trading_arcs
            ),
            "groups": [group_to_dict(g) for g in result.groups],
        }


def write_detection_json(result: "DetectionResult", path: str | Path) -> Path:
    """Serialize a detection result (groups, counts, metadata) as JSON."""
    path = Path(path)
    path.write_text(json.dumps(detection_to_dict(result), indent=2))
    return path


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
