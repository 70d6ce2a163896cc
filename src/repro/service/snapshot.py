"""Point-in-time snapshots of the daemon's streamed arc state.

A snapshot pins the full set of live trading arcs at a WAL sequence
number.  Recovery is then ``snapshot + WAL records with seq >
snapshot.last_seq`` — the WAL is truncated right after a snapshot is
written, so under normal operation the log only holds the updates since
the last compaction.

Snapshots are written atomically (temp file + ``os.replace``) so a
crash mid-write leaves the previous snapshot intact, and carry a format
version so the layout can evolve.  Both the temp file and, after the
rename, the parent directory are fsynced: callers truncate the WAL right
after this returns, so the rename must be as durable as that truncation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import SerializationError

__all__ = ["Snapshot", "read_snapshot", "write_snapshot"]

_SNAPSHOT_FORMAT = 1


@dataclass(frozen=True, slots=True)
class Snapshot:
    """The live arc set as of WAL sequence ``last_seq``."""

    last_seq: int
    arcs: tuple[tuple[str, str], ...]

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def write_snapshot(path: str | Path, snapshot: Snapshot) -> Path:
    """Atomically persist ``snapshot`` at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "last_seq": snapshot.last_seq,
        "arcs": [[seller, buyer] for seller, buyer in snapshot.arcs],
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def read_snapshot(path: str | Path) -> Snapshot | None:
    """Load the snapshot at ``path``; ``None`` when none was written."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"{path} is not a valid snapshot: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(f"{path}: expected a JSON object")
    if payload.get("format") != _SNAPSHOT_FORMAT:
        raise SerializationError(
            f"{path}: unsupported snapshot format {payload.get('format')!r}"
        )
    last_seq = payload.get("last_seq")
    arcs_raw = payload.get("arcs")
    if not isinstance(last_seq, int) or isinstance(last_seq, bool) or last_seq < 0:
        raise SerializationError(f"{path}: last_seq {last_seq!r} is invalid")
    if not isinstance(arcs_raw, list):
        raise SerializationError(f"{path}: arcs must be a JSON array")
    arcs: list[tuple[str, str]] = []
    for entry in arcs_raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(endpoint, str) for endpoint in entry)
        ):
            raise SerializationError(f"{path}: malformed arc entry {entry!r}")
        arcs.append((entry[0], entry[1]))
    return Snapshot(last_seq=last_seq, arcs=tuple(arcs))
