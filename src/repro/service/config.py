"""Configuration for the long-lived detection daemon.

One frozen record holds everything the daemon needs to run: where to
listen, where the durable state lives (the write-ahead log + snapshot),
how often to compact, and the streaming detector's cache
bound.  The CLI ``serve`` subcommand builds one of these from flags;
tests build them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Operational parameters of one daemon instance.

    Parameters
    ----------
    state_dir:
        Directory holding the write-ahead log and latest snapshot.  Created on demand; point two daemons at the same
        directory and the second one inherits the first one's state.
    host / port:
        Listen address.  Port ``0`` asks the OS for an ephemeral port
        (useful in tests; the bound port is reported once the socket
        exists).
    snapshot_every:
        Compact (snapshot + WAL truncation) after this many applied arc
        updates.  Bounds both recovery time and WAL size.
    fsync:
        Fsync the WAL after every acknowledged update.  ``True`` is the
        durable default; ``False`` trades crash safety for throughput
        (data loss window = OS page-cache flush interval).
    max_cached_roots:
        Forwarded to :class:`~repro.mining.incremental.IncrementalDetector`:
        LRU bound on the per-root influence-path cache.
    recent_traces:
        How many recent mutation span trees to keep for
        ``GET /v1/trace/{subtpiin}``; ``0`` disables mutation tracing.
    ingest_queue_limit:
        Bound on the pending single-arc ingest queue.  A full
        queue sheds the request with HTTP ``429`` + ``Retry-After``
        instead of blocking — admission control never deadlocks.
    group_commit_max:
        Upper bound on how many queued mutations the writer applies
        per WAL fsync (group commit).  Larger groups amortize
        the fsync further at the cost of per-request latency.
    retry_after_seconds:
        The ``Retry-After`` hint (in seconds) sent with 429 responses.
    """

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 8420
    snapshot_every: int = 500
    fsync: bool = True
    max_cached_roots: int | None = 4096
    recent_traces: int = 64
    ingest_queue_limit: int = 1024
    group_commit_max: int = 128
    retry_after_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ServiceError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.recent_traces < 0:
            raise ServiceError(
                f"recent_traces must be >= 0, got {self.recent_traces}"
            )
        if not 0 <= self.port <= 65535:
            raise ServiceError(f"port must be in [0, 65535], got {self.port}")
        if self.ingest_queue_limit < 1:
            raise ServiceError(
                f"ingest_queue_limit must be >= 1, got {self.ingest_queue_limit}"
            )
        if self.group_commit_max < 1:
            raise ServiceError(
                f"group_commit_max must be >= 1, got {self.group_commit_max}"
            )
        if self.retry_after_seconds <= 0:
            raise ServiceError(
                f"retry_after_seconds must be > 0, got {self.retry_after_seconds}"
            )
        object.__setattr__(self, "state_dir", Path(self.state_dir))

    def shard_wal_path(self, shard: int) -> Path:
        """WAL of one shard (``wal-0003.jsonl`` for shard 3).

        The daemon writes shard 0's files; other indexes only name the
        files of a directory the N-shard daemon of earlier releases
        wrote, which ``open`` folds into shard 0.
        """
        return self.state_dir / f"wal-{shard:04d}.jsonl"

    def shard_snapshot_path(self, shard: int) -> Path:
        return self.state_dir / f"snapshot-{shard:04d}.json"

    def ensure_state_dir(self) -> Path:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        return self.state_dir
