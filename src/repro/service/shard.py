"""The detection daemon's single writer.

A :class:`ShardWorker` owns the daemon's mutable state: an
:class:`~repro.mining.incremental.IncrementalDetector`, the write-ahead
log, the snapshot, and a readers/writer lock.

Ingest runs through a **bounded queue + group commit** pipeline: HTTP
worker threads enqueue mutations (a full queue sheds with
:class:`~repro.errors.BackpressureError` instead of blocking — the 429
path must never deadlock), and one commit thread drains the queue in
groups of up to ``group_commit_max``, applies each mutation under the
write lock, appends the WAL records unflushed, and issues **one**
flush+fsync for the whole group before acknowledging any of them.  On a
box where the fsync dominates the mutation path this amortization is
where the daemon's write throughput comes from.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Sequence

from repro.errors import BackpressureError, MiningError, ServiceError
from repro.mining.detector import DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.mining.incremental import ArcUpdate, IncrementalDetector, PathCacheStats
from repro.obs.tracing import NULL_TRACER, Tracer, TracerLike
from repro.service.config import ServiceConfig
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.snapshot import Snapshot, write_snapshot
from repro.service.wal import OP_ADD, WriteAheadLog

__all__ = ["PendingMutation", "ShardWorker"]

#: How long an HTTP thread waits for its queued mutation's verdict
#: before declaring the commit thread dead.  Generous: a full group of
#: fsyncs plus a compaction finishes orders of magnitude faster.
_RESOLVE_TIMEOUT_SECONDS = 60.0

#: One mutation's verdict: the update, or the error that refused it.
_Outcome = ArcUpdate | BaseException
#: ``(subTPIINs touched, trace payload)`` of one traced mutation.
_Trace = tuple[tuple[int, ...], dict[str, object]]


class PendingMutation:
    """One queued single-arc mutation awaiting its verdict."""

    __slots__ = ("op", "seller", "buyer", "_event", "_result", "_error")

    def __init__(self, op: str, seller: str, buyer: str) -> None:
        self.op = op
        self.seller = seller
        self.buyer = buyer
        self._event = threading.Event()
        self._result: ArcUpdate | None = None
        self._error: BaseException | None = None

    def resolve(self, result: ArcUpdate) -> None:
        self._result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: float = _RESOLVE_TIMEOUT_SECONDS) -> ArcUpdate:
        """Block until the commit thread resolves this mutation; re-raise errors."""
        if not self._event.wait(timeout):
            raise ServiceError(
                f"the writer did not answer within {timeout:g}s "
                f"for {self.op} ({self.seller!r} -> {self.buyer!r})"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ShardWorker:
    """Detector + WAL + snapshot + ingest queue: the daemon's one writer."""

    #: Attributes that may only be touched under ``self._lock`` —
    #: reads need at least the read lock, mutations the write lock.
    #: Enforced flow-sensitively by reprolint R014.  The ingest queue is
    #: *not* in this set: it has its own condition variable so admission
    #: control never contends with the detector's critical sections.
    _lock_guarded = frozenset({"_detector", "_wal", "_ops_since_snapshot"})

    def __init__(
        self,
        detector: IncrementalDetector,
        wal: WriteAheadLog,
        config: ServiceConfig,
        metrics: ServiceMetrics,
        *,
        on_trace: Callable[[tuple[int, ...], dict[str, object]], None] | None = None,
    ) -> None:
        self._detector = detector
        self._wal = wal
        self._config = config
        self._metrics = metrics
        self._on_trace = on_trace
        self._trace_mutations = config.recent_traces > 0 and on_trace is not None
        self._snapshot_path = config.shard_snapshot_path(0)
        self._lock = ReadWriteLock()
        self._ops_since_snapshot = 0
        self._queue: deque[PendingMutation] = deque()
        self._q_cond = threading.Condition()
        self._stopping = False
        self._failed: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-writer", daemon=False
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # admission (HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, op: str, seller: str, buyer: str) -> PendingMutation:
        """Enqueue one mutation; sheds with 429 when the queue is full."""
        entry = PendingMutation(op, seller, buyer)
        limit = self._config.ingest_queue_limit
        with self._q_cond:
            if self._stopping or self._failed is not None:
                raise ServiceError("the writer is not accepting mutations")
            if len(self._queue) >= limit:
                self._metrics.count_shed()
                raise BackpressureError(
                    f"ingest queue is full ({len(self._queue)}/{limit})",
                    retry_after=self._config.retry_after_seconds,
                )
            self._queue.append(entry)
            depth = len(self._queue)
            self._q_cond.notify()
        self._metrics.set_queue_depth(depth, limit)
        return entry

    def queue_depth(self) -> int:
        with self._q_cond:
            return len(self._queue)

    def failure(self) -> BaseException | None:
        """The fault that poisoned the writer, or ``None`` while healthy."""
        with self._q_cond:
            return self._failed

    def ensure_healthy(self) -> None:
        """Refuse work on a poisoned writer with a typed error (a 503)."""
        failed = self.failure()
        if failed is not None:
            raise ServiceError(f"the writer failed: {failed}")

    # ------------------------------------------------------------------
    # commit thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            group = self._take()
            if group is None:
                return
            try:
                self._commit_group(group)
            except BaseException as exc:  # noqa: BLE001 - disk fault &c.
                for pending in group:
                    pending.fail(exc)
                self._fail_remaining(exc)
                return

    def _take(self) -> list[PendingMutation] | None:
        """Next group of up to ``group_commit_max`` queued mutations.

        Returns ``None`` once stopping *and* drained — shutdown commits
        every accepted mutation before the thread exits.
        """
        group_max = self._config.group_commit_max
        with self._q_cond:
            while not self._queue and not self._stopping:
                self._q_cond.wait()
            if not self._queue:
                return None
            group = [
                self._queue.popleft()
                for _ in range(min(group_max, len(self._queue)))
            ]
            depth = len(self._queue)
        self._metrics.set_queue_depth(depth, self._config.ingest_queue_limit)
        return group

    def _commit_group(self, group: list[PendingMutation]) -> None:
        ops = [(pending.op, pending.seller, pending.buyer) for pending in group]
        with self._lock.write():
            outcomes, traces = self._apply_group_locked(
                ops, trace=self._trace_mutations
            )
        if self._on_trace is not None:
            for components, payload in traces:
                self._on_trace(components, payload)
        for pending, outcome in zip(group, outcomes):
            if isinstance(outcome, BaseException):
                pending.fail(outcome)
            else:
                pending.resolve(outcome)

    def _apply_group_locked(
        self, ops: Sequence[tuple[str, str, str]], *, trace: bool
    ) -> tuple[list[_Outcome], list[_Trace]]:
        """Apply ``(op, seller, buyer)`` tuples with one fsync at the end.

        The WAL sync is the group-commit barrier: no caller observes a
        verdict before every record of the group is durable.  A poisoned
        writer refuses the group.  A failed append, sync or compaction
        poisons it: the group is applied in memory but not durable, so
        nothing may be acknowledged on top of it — the writer fails its
        queue, refuses later writes and shows in health.
        """
        self.ensure_healthy()
        try:
            return self._commit_locked(ops, trace=trace)
        except Exception as exc:
            self._fail_remaining(exc)
            raise ServiceError(f"commit failed: {exc}") from exc

    def _commit_locked(
        self, ops: Sequence[tuple[str, str, str]], *, trace: bool
    ) -> tuple[list[_Outcome], list[_Trace]]:
        outcomes: list[_Outcome] = []
        traces: list[_Trace] = []
        appended = False
        for op, seller, buyer in ops:
            tracer: TracerLike = Tracer() if trace else NULL_TRACER
            try:
                with tracer.span("mutation") as span:
                    with tracer.span("apply"):
                        if op == OP_ADD:
                            update = self._detector.add_trading_arc(seller, buyer)
                        else:
                            update = self._detector.remove_trading_arc(seller, buyer)
                    if update.applied:
                        with tracer.span("wal_append"):
                            self._wal.append(  # reprolint: disable=R014
                                op, seller, buyer, sync=False
                            )
                        appended = True
                        self._ops_since_snapshot += 1
                        self._metrics.count_wal_append()
                        self._metrics.count_arc_applied(op)
                    if tracer.enabled:
                        span.set(
                            op=op,
                            seller=seller,
                            buyer=buyer,
                            applied=update.applied,
                            suspicious=update.suspicious,
                        )
                    record = span.record
            except MiningError as exc:
                outcomes.append(exc)
                continue
            outcomes.append(update)
            if record is not None:
                components = self._components_of_locked(seller, buyer)
                traces.append(
                    (
                        components,
                        {
                            "subtpiins": list(components),
                            "op": op,
                            "arc": [seller, buyer],
                            "trace": record.to_dict(),
                        },
                    )
                )
        if appended:
            # Group-commit barrier: one flush+fsync covers every record
            # appended above; only now may any of them be acknowledged.
            self._wal.sync()  # reprolint: disable=R014
            if self._ops_since_snapshot >= self._config.snapshot_every:
                self._compact_locked()
        return outcomes, traces

    def _components_of_locked(self, seller: str, buyer: str) -> tuple[int, ...]:
        components = set()
        for node in (seller, buyer):
            try:
                components.add(self._detector.component_of(node))
            except MiningError:
                continue
        return tuple(sorted(components))

    def _fail_remaining(self, error: BaseException) -> None:
        """Poison the writer after an unrecoverable commit fault."""
        with self._q_cond:
            if self._failed is None:
                self._failed = error
            drained = list(self._queue)
            self._queue.clear()
            self._q_cond.notify_all()
        for entry in drained:
            entry.fail(ServiceError(f"the writer failed: {error}"))

    # ------------------------------------------------------------------
    # synchronous chunk application (the NDJSON batch path)
    # ------------------------------------------------------------------
    def apply_chunk(self, ops: Sequence[tuple[str, str, str]]) -> list[_Outcome]:
        """Apply ``(op, seller, buyer)`` tuples with one fsync for all.

        The batch endpoint bypasses the admission queue (the request
        body *is* the batch) but shares the same group-commit critical
        section, so batch and queued traffic serialize.  Batch lines are
        not traced: one batch would evict every single-arc trace from
        the ``/v1/trace`` ring.  Raises :class:`ServiceError` on a
        poisoned writer or a failed commit.
        """
        with self._lock.write():
            outcomes, _ = self._apply_group_locked(ops, trace=False)
        return outcomes

    def _compact_locked(self) -> Snapshot:
        snapshot = Snapshot(
            last_seq=self._wal.last_seq,
            arcs=tuple(
                (str(seller), str(buyer))
                for seller, buyer in self._detector.trading_arcs()
            ),
        )
        # Snapshot write and WAL truncation must be atomic with respect
        # to mutations: a write between them would be lost on recovery.
        write_snapshot(self._snapshot_path, snapshot)  # reprolint: disable=R014
        self._wal.truncate()  # reprolint: disable=R014
        self._ops_since_snapshot = 0
        self._metrics.count_snapshot()
        return snapshot

    def compact(self) -> Snapshot:
        with self._lock.write():
            return self._compact_locked()

    # ------------------------------------------------------------------
    # queries (shared lock)
    # ------------------------------------------------------------------
    def result(self) -> DetectionResult:
        with self._lock.read():
            return self._detector.result()

    def trading_arcs(self) -> list[tuple[str, str]]:
        with self._lock.read():
            return [(str(s), str(b)) for s, b in self._detector.trading_arcs()]

    def arc_view(
        self, seller: str, buyer: str
    ) -> tuple[bool, bool, list[SuspiciousGroup]]:
        """``(present, suspicious, groups)`` of one arc."""
        with self._lock.read():
            return (
                (seller, buyer) in self._detector,
                self._detector.is_suspicious_arc(seller, buyer),
                list(self._detector.groups_for_arc(seller, buyer)),
            )

    def arc_count(self) -> int:
        with self._lock.read():
            return len(self._detector)

    def stats(self) -> tuple[int, int, PathCacheStats]:
        """``(live arcs, last WAL seq, path-cache counters)``, one read."""
        with self._lock.read():
            return (
                len(self._detector),
                self._wal.last_seq,
                self._detector.path_cache_stats,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work, drain the queue (every accepted entry
        commits), then flush and release the WAL (idempotent)."""
        with self._q_cond:
            self._stopping = True
            self._q_cond.notify_all()
        if self._thread.is_alive():
            self._thread.join()
        with self._lock.write():
            wal = self._wal
        wal.close()
