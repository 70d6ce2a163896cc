"""Write-ahead log of trading-arc updates.

Durability contract: an update is acknowledged to the client only after
its record is appended (and, with ``fsync`` on, flushed to stable
storage).  A daemon killed at any instant can therefore replay the log
and land on exactly the set of acknowledged updates.

Format: one JSON object per line (JSONL), each carrying a strictly
increasing ``seq``, the operation (``add`` / ``remove``) and the arc
endpoints.  The format is append-only and human-greppable on purpose —
operators will read this file during incidents.

Crash tolerance follows the classic rule: a *torn tail* (the final line
truncated mid-write by the crash) is tolerated and dropped; corruption
anywhere before the tail means the file cannot be trusted and raises
:class:`~repro.errors.WALError`.  :meth:`WriteAheadLog.open` rewrites a
torn file down to its valid prefix before appending resumes, so a torn
record can never be extended into a plausible-but-wrong one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.errors import WALError

__all__ = ["OP_ADD", "OP_REMOVE", "ReplayResult", "WALRecord", "WriteAheadLog", "read_wal"]

OP_ADD = "add"
OP_REMOVE = "remove"
_OPS = frozenset({OP_ADD, OP_REMOVE})


@dataclass(frozen=True, slots=True)
class WALRecord:
    """One acknowledged arc update."""

    seq: int
    op: str
    seller: str
    buyer: str

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "op": self.op, "seller": self.seller, "buyer": self.buyer},
            separators=(",", ":"),
        )

    @classmethod
    def from_payload(cls, payload: dict[str, Any], *, context: str) -> "WALRecord":
        try:
            seq = payload["seq"]
            op = payload["op"]
            seller = payload["seller"]
            buyer = payload["buyer"]
        except KeyError as exc:
            raise WALError(f"{context}: record is missing field {exc}") from exc
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise WALError(f"{context}: seq {seq!r} is not a positive integer")
        if op not in _OPS:
            raise WALError(f"{context}: unknown operation {op!r}")
        if not isinstance(seller, str) or not isinstance(buyer, str):
            raise WALError(f"{context}: endpoints must be strings")
        return cls(seq=seq, op=op, seller=seller, buyer=buyer)


@dataclass(frozen=True, slots=True)
class ReplayResult:
    """Outcome of reading a WAL file back."""

    records: tuple[WALRecord, ...]
    torn_tail: bool

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


def read_wal(path: str | Path) -> ReplayResult:
    """Parse a WAL file, tolerating (and reporting) a torn final line.

    A missing file reads as empty.  Any malformed line other than the
    last, or a non-increasing ``seq``, raises :class:`WALError` — a log
    with a hole in the middle must never be silently replayed.
    """
    path = Path(path)
    if not path.exists():
        return ReplayResult(records=(), torn_tail=False)
    raw = path.read_bytes()
    if not raw:
        return ReplayResult(records=(), torn_tail=False)
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, leaving one trailing empty
    # chunk; anything else in the final slot is a torn-write candidate.
    tail = lines.pop() if lines else b""
    records: list[WALRecord] = []
    last_seq = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = _parse_line(path, lineno, line)
        if record.seq <= last_seq:
            raise WALError(
                f"{path}:{lineno}: seq {record.seq} does not increase "
                f"(previous {last_seq})"
            )
        last_seq = record.seq
        records.append(record)
    torn_tail = False
    if tail.strip():
        try:
            record = _parse_line(path, len(lines) + 1, tail)
        except WALError:
            torn_tail = True  # torn final write: tolerated, dropped
        else:
            if record.seq <= last_seq:
                torn_tail = True
            else:
                # Complete record that merely lost its newline in the
                # crash; it was fully written, so it counts.
                records.append(record)
                torn_tail = True  # file still needs a rewrite
    return ReplayResult(records=tuple(records), torn_tail=torn_tail)


def _parse_line(path: Path, lineno: int, line: bytes) -> WALRecord:
    context = f"{path}:{lineno}"
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WALError(f"{context}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WALError(f"{context}: expected a JSON object")
    return WALRecord.from_payload(payload, context=context)


class WriteAheadLog:
    """Append-only writer over one WAL file."""

    def __init__(self, path: str | Path, *, fsync: bool = True, next_seq: int = 1) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._next_seq = next_seq
        self._handle: IO[str] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, *, fsync: bool = True, floor: int = 0
    ) -> tuple["WriteAheadLog", ReplayResult]:
        """Read the log back, heal a torn tail, and position for appends.

        Returns the writer plus the replay result the caller must apply
        to its in-memory state before serving traffic.  Appends continue
        past both the last record and ``floor`` (the ``last_seq`` of the
        snapshot the log follows): a truncated log is empty, but its
        sequence numbers must stay above what the snapshot covers.
        """
        replay = read_wal(path)
        if replay.torn_tail:
            # Rewrite the valid prefix so the next append starts on a
            # clean newline boundary instead of extending torn bytes.
            healed = Path(path)
            with healed.open("w", encoding="utf-8") as handle:
                for record in replay.records:
                    handle.write(record.to_json() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        wal = cls(path, fsync=fsync, next_seq=max(replay.last_seq, floor) + 1)
        return wal, replay

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def append(
        self,
        op: str,
        seller: str,
        buyer: str,
        *,
        sync: bool = True,
    ) -> WALRecord:
        """Durably record one applied update; returns the record.

        ``sync=False`` buffers the record without flushing; the caller
        then amortizes one :meth:`sync` over a whole group of appends
        (group commit) and must not acknowledge any of them before that
        sync returns.
        """
        if op not in _OPS:
            raise WALError(f"unknown WAL operation {op!r}")
        record = WALRecord(seq=self._next_seq, op=op, seller=seller, buyer=buyer)
        handle = self._ensure_handle()
        handle.write(record.to_json() + "\n")
        if sync:
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self._next_seq += 1
        return record

    def sync(self) -> None:
        """Flush (and fsync, if configured) buffered appends to disk.

        The group-commit barrier: after this returns, every record
        appended with ``sync=False`` is durable and may be acknowledged.
        """
        if self._handle is not None:
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def truncate(self) -> None:
        """Drop every record (after a snapshot made them redundant).

        ``seq`` keeps counting — sequence numbers are unique across the
        daemon's whole history, which lets recovery discard stale
        records if a crash lands between snapshot write and truncation.
        """
        self.close()
        with self._path.open("w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _ensure_handle(self) -> IO[str]:
        if self._handle is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("a", encoding="utf-8")
        return self._handle
