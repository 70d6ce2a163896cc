"""One worker of the component-sharded detection service.

A :class:`ShardWorker` owns the mutable state of a disjoint set of
weakly connected antecedent components: an
:class:`~repro.mining.incremental.IncrementalDetector` (sharing the
immutable antecedent indexes with its sibling shards), a per-shard
write-ahead log stamped with the *global* sequence the router assigns,
a per-shard snapshot, and a readers/writer lock.

Ingest runs through a **bounded queue + group commit** pipeline: HTTP
worker threads enqueue mutations (a full queue sheds with
:class:`~repro.errors.BackpressureError` instead of blocking — the 429
path must never deadlock), and one worker thread per shard drains the
queue in groups of up to ``group_commit_max``, applies each mutation
under the shard's write lock, appends the WAL records unflushed, and
issues **one** flush+fsync for the whole group before acknowledging any
of them.  On a box where the fsync dominates the mutation path this
amortization — plus N shards fsyncing concurrently — is where the
sharded service's throughput comes from.

Cross-shard work (component merges) enters the same queue as a
:class:`CoordinatorJob` so it executes at its FIFO position; the job's
callable acquires the shard locks it needs *in shard-index order*
itself, with the worker holding none — two concurrent merges can never
deadlock.  A mutation that reaches a worker whose shard no longer owns
the arc (a merge rehomed it) is forwarded to the owner's queue rather
than misapplied.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from repro.errors import BackpressureError, MiningError, ServiceError
from repro.mining.detector import DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.mining.incremental import ArcUpdate, IncrementalDetector, PathCacheStats
from repro.obs.tracing import NULL_TRACER, Tracer, TracerLike
from repro.service.config import ServiceConfig
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.snapshot import Snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog

__all__ = ["CoordinatorJob", "PendingMutation", "ShardWorker"]

#: How long an HTTP thread waits for its queued mutation's verdict
#: before declaring the shard worker dead.  Generous: a full group of
#: fsyncs plus a compaction finishes orders of magnitude faster.
_RESOLVE_TIMEOUT_SECONDS = 60.0


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
        """Block until the worker resolves this mutation; re-raise errors."""
        if not self._event.wait(timeout):
            raise ServiceError(
                f"shard worker did not answer within {timeout:g}s "
                f"for {self.op} ({self.seller!r} -> {self.buyer!r})"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class CoordinatorJob:
    """A cross-shard operation queued at its FIFO position.

    The worker runs ``run`` while holding *no* locks; the callable
    (the router's merge coordinator) acquires every shard lock it needs
    in shard-index order, which makes concurrent merges deadlock-free.
    """

    __slots__ = ("run", "_event", "_result", "_error")

    def __init__(self, run: Callable[[], ArcUpdate]) -> None:
        self.run = run
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
        if not self._event.wait(timeout):
            raise ServiceError("shard worker did not answer a coordinator job")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ShardWorker:
    """Detector + WAL + snapshot + queue for one component partition."""

    #: Attributes that may only be touched under ``self._lock`` —
    #: reads need at least the read lock, mutations the write lock.
    #: Enforced flow-sensitively by reprolint R014.  The ingest queue is
    #: *not* in this set: it has its own condition variable so admission
    #: control never contends with the detector's critical sections.
    _lock_guarded = frozenset({"_detector", "_wal", "_ops_since_snapshot"})

    def __init__(
        self,
        index: int,
        detector: IncrementalDetector,
        wal: WriteAheadLog,
        config: ServiceConfig,
        metrics: ServiceMetrics,
        *,
        next_seq: Callable[[], int],
        owner_of: Callable[[tuple[str, str]], "int | None"],
        on_applied: Callable[[str, str, str], None],
        forward: Callable[[PendingMutation], None],
        on_trace: Callable[[tuple[int, ...], dict[str, object]], None] | None = None,
        start: bool = True,
    ) -> None:
        self.index = index
        self._detector = detector
        self._wal = wal
        self._config = config
        self._metrics = metrics
        self._next_seq = next_seq
        self._owner_of = owner_of
        self._on_applied = on_applied
        self._forward = forward
        self._on_trace = on_trace
        self._trace_mutations = config.recent_traces > 0 and on_trace is not None
        self._snapshot_path = config.shard_snapshot_path(index)
        self._lock = ReadWriteLock()
        self._ops_since_snapshot = 0
        self._queue: deque[PendingMutation | CoordinatorJob] = deque()
        self._q_cond = threading.Condition()
        self._stopping = False
        self._failed: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{index}", daemon=False
        )
        self._started = False
        if start:
            self._thread.start()
            self._started = True

    # ------------------------------------------------------------------
    # admission (HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, op: str, seller: str, buyer: str) -> PendingMutation:
        """Enqueue one mutation; sheds with 429 when the queue is full."""
        entry = PendingMutation(op, seller, buyer)
        self.enqueue(entry)
        return entry

    def submit_job(self, run: Callable[[], ArcUpdate]) -> CoordinatorJob:
        """Enqueue a coordinator job (cross-shard merge) at FIFO position."""
        job = CoordinatorJob(run)
        self.enqueue(job)
        return job

    def enqueue(self, entry: PendingMutation | CoordinatorJob) -> None:
        limit = self._config.ingest_queue_limit
        with self._q_cond:
            if self._stopping or self._failed is not None:
                raise ServiceError(
                    f"shard {self.index} is not accepting mutations"
                )
            if len(self._queue) >= limit:
                self._metrics.count_shed(self.index)
                raise BackpressureError(
                    f"shard {self.index} ingest queue is full "
                    f"({len(self._queue)}/{limit})",
                    retry_after=self._config.retry_after_seconds,
                )
            self._queue.append(entry)
            depth = len(self._queue)
            self._q_cond.notify()
        self._metrics.set_queue_depth(self.index, depth, limit)

    def queue_depth(self) -> int:
        with self._q_cond:
            return len(self._queue)

    def failure(self) -> BaseException | None:
        """The fault that poisoned this shard, or ``None`` while healthy."""
        with self._q_cond:
            return self._failed

    def ensure_healthy(self) -> None:
        """Refuse work on a poisoned shard with a typed error (a 503)."""
        failed = self.failure()
        if failed is not None:
            raise ServiceError(f"shard {self.index} worker failed: {failed}")

    @contextmanager
    def _poison_on_failure(self) -> Iterator[None]:
        """Poison the shard if the body's append, sync or compaction fails.

        The failed step leaves the in-memory state ahead of the durable
        log, so nothing may be acknowledged on top of it: the shard
        fails its queue, refuses later writes and shows in health.
        """
        try:
            yield
        except Exception as exc:
            self._fail_remaining(exc)
            raise ServiceError(f"shard {self.index} commit failed: {exc}") from exc

    # ------------------------------------------------------------------
    # worker loop (one thread per shard)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            taken = self._take()
            if taken is None:
                return
            if isinstance(taken, CoordinatorJob):
                try:
                    taken.resolve(taken.run())
                except BaseException as exc:  # noqa: BLE001 - resolve waiter
                    taken.fail(exc)
                continue
            try:
                self._commit_group(taken)
            except BaseException as exc:  # noqa: BLE001 - disk fault &c.
                for pending in taken:
                    pending.fail(exc)
                self._fail_remaining(exc)
                return

    def _take(self) -> "list[PendingMutation] | CoordinatorJob | None":
        """Next unit of work: a group of mutations or one coordinator job.

        Groups stop at ``group_commit_max`` entries or at a coordinator
        job boundary (jobs must run at their exact FIFO position).
        Returns ``None`` once stopping *and* drained — shutdown commits
        every accepted mutation before the thread exits.
        """
        group_max = self._config.group_commit_max
        with self._q_cond:
            while not self._queue and not self._stopping:
                self._q_cond.wait()
            if not self._queue:
                return None
            head = self._queue[0]
            taken: list[PendingMutation] | CoordinatorJob
            if isinstance(head, CoordinatorJob):
                self._queue.popleft()
                taken = head
            else:
                group: list[PendingMutation] = []
                while (
                    self._queue
                    and len(group) < group_max
                    and isinstance(self._queue[0], PendingMutation)
                ):
                    entry = self._queue.popleft()
                    assert isinstance(entry, PendingMutation)
                    group.append(entry)
                taken = group
            depth = len(self._queue)
        self._metrics.set_queue_depth(
            self.index, depth, self._config.ingest_queue_limit
        )
        return taken

    def _commit_group(self, group: list[PendingMutation]) -> None:
        ops = [(pending.op, pending.seller, pending.buyer) for pending in group]
        with self._lock.write():
            outcomes, traces = self._apply_group_locked(
                ops, trace=self._trace_mutations
            )
        for payload in traces:
            if self._on_trace is not None:
                self._on_trace(payload[0], payload[1])
        for pending, outcome in zip(group, outcomes):
            if outcome is None:
                # The arc is owned by another shard (a merge rehomed it
                # after routing): forward instead of misapplying here.
                try:
                    self._forward(pending)
                except (BackpressureError, ServiceError) as exc:
                    pending.fail(exc)
            elif isinstance(outcome, BaseException):
                pending.fail(outcome)
            else:
                pending.resolve(outcome)

    def _apply_group_locked(
        self, ops: Sequence[tuple[str, str, str]], *, trace: bool
    ) -> tuple[
        "list[ArcUpdate | BaseException | None]",
        list[tuple[tuple[int, ...], dict[str, object]]],
    ]:
        """Apply ``(op, seller, buyer)`` tuples with one fsync at the end.

        ``None`` outcomes mark entries to forward to their owning shard.
        The WAL sync is the group-commit barrier: no caller observes a
        verdict before every record of the group is durable.  A poisoned
        shard refuses the group; a commit that fails (an fsync error,
        say) poisons it, since the group is applied in memory but not
        durable and nothing may be acknowledged on top of it.
        """
        self.ensure_healthy()
        with self._poison_on_failure():
            return self._commit_locked(ops, trace=trace)

    def _commit_locked(
        self, ops: Sequence[tuple[str, str, str]], *, trace: bool
    ) -> tuple[
        "list[ArcUpdate | BaseException | None]",
        list[tuple[tuple[int, ...], dict[str, object]]],
    ]:
        outcomes: list[ArcUpdate | BaseException | None] = []
        traces: list[tuple[tuple[int, ...], dict[str, object]]] = []
        appended = False
        for op, seller, buyer in ops:
            owner = self._owner_of((seller, buyer))
            if owner is not None and owner != self.index:
                outcomes.append(None)
                continue
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
                                op, seller, buyer, seq=self._next_seq(), sync=False
                            )
                        appended = True
                        self._ops_since_snapshot += 1
                        self._on_applied(op, seller, buyer)
                        self._metrics.count_wal_append()
                        self._metrics.count_arc_applied(op)
                    if tracer.enabled:
                        span.set(
                            op=op,
                            seller=seller,
                            buyer=buyer,
                            shard=self.index,
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
                            "shard": self.index,
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
        """Poison the shard after an unrecoverable worker fault."""
        with self._q_cond:
            if self._failed is None:
                self._failed = error
            drained = list(self._queue)
            self._queue.clear()
            self._q_cond.notify_all()
        for entry in drained:
            entry.fail(ServiceError(f"shard {self.index} worker failed: {error}"))

    # ------------------------------------------------------------------
    # synchronous chunk application (the NDJSON batch path)
    # ------------------------------------------------------------------
    def apply_chunk(
        self, ops: Sequence[tuple[str, str, str]]
    ) -> "list[ArcUpdate | BaseException | None]":
        """Apply ``(op, seller, buyer)`` tuples with one fsync for all.

        The batch endpoint bypasses the admission queue (the request
        body *is* the batch) but shares the same group-commit critical
        section, so batch and queued traffic serialize per shard and
        interleave freely across shards.  ``None`` outcomes mark ops
        owned by another shard; the router re-dispatches those.  Batch
        lines are not traced: one batch would evict every single-arc
        trace from the ``/v1/trace`` ring.  Raises :class:`ServiceError`
        on a poisoned shard or a failed commit.
        """
        with self._lock.write():
            outcomes, _ = self._apply_group_locked(ops, trace=False)
        return outcomes

    # ------------------------------------------------------------------
    # coordinator helpers (caller holds this shard's WRITE lock)
    #
    # A failed WAL append, sync or compaction here poisons this shard
    # and raises ServiceError.  The coordinator syncs one shard's
    # appends before it touches the next shard, so the shard that
    # failed is the only one holding unsynced records.
    # ------------------------------------------------------------------
    @property
    def lock(self) -> ReadWriteLock:
        """The shard's readers/writer lock, for the merge coordinator."""
        return self._lock

    def add_arc_locked(self, seller: str, buyer: str) -> ArcUpdate:
        """Apply + log one add; the caller syncs before acknowledging."""
        update = self._detector.add_trading_arc(seller, buyer)
        if update.applied:
            self._log_locked(OP_ADD, seller, buyer)
        return update

    def remove_arc_locked(self, seller: str, buyer: str) -> ArcUpdate:
        update = self._detector.remove_trading_arc(seller, buyer)
        if update.applied:
            self._log_locked(OP_REMOVE, seller, buyer)
        return update

    def _log_locked(self, op: str, seller: str, buyer: str) -> None:
        with self._poison_on_failure():
            self._wal.append(  # reprolint: disable=R014
                op, seller, buyer, seq=self._next_seq(), sync=False
            )
        self._ops_since_snapshot += 1
        self._on_applied(op, seller, buyer)
        self._metrics.count_wal_append()
        self._metrics.count_arc_applied(op)

    def sync_wal_locked(self) -> None:
        """Group-commit barrier for ``*_arc_locked`` appends."""
        with self._poison_on_failure():
            self._wal.sync()  # reprolint: disable=R014

    def trading_arcs_locked(self) -> list[tuple[str, str]]:
        return [(str(s), str(b)) for s, b in self._detector.trading_arcs()]

    def maybe_compact_locked(self) -> None:
        if self._ops_since_snapshot >= self._config.snapshot_every:
            with self._poison_on_failure():
                self._compact_locked()

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
            return self.result_rlocked()

    def result_rlocked(self) -> DetectionResult:
        return self._detector.result()

    def trading_arcs(self) -> list[tuple[str, str]]:
        with self._lock.read():
            return self.trading_arcs_rlocked()

    def trading_arcs_rlocked(self) -> list[tuple[str, str]]:
        return [(str(s), str(b)) for s, b in self._detector.trading_arcs()]

    def arc_view(
        self, seller: str, buyer: str
    ) -> tuple[bool, bool, list[SuspiciousGroup]]:
        """``(present, suspicious, groups)`` of one arc on this shard."""
        with self._lock.read():
            return (
                (seller, buyer) in self._detector,
                self._detector.is_suspicious_arc(seller, buyer),
                list(self._detector.groups_for_arc(seller, buyer)),
            )

    def arc_count(self) -> int:
        with self._lock.read():
            return self.arc_count_rlocked()

    def arc_count_rlocked(self) -> int:
        return len(self._detector)

    def path_cache_stats(self) -> PathCacheStats:
        with self._lock.read():
            return self.path_cache_stats_rlocked()

    def path_cache_stats_rlocked(self) -> PathCacheStats:
        return self._detector.path_cache_stats

    def wal_last_seq(self) -> int:
        with self._lock.read():
            return self.wal_last_seq_rlocked()

    def wal_last_seq_rlocked(self) -> int:
        return self._wal.last_seq

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (tests construct with ``start=False``)."""
        if not self._started:
            self._thread.start()
            self._started = True

    def stop(self) -> None:
        """Stop accepting work and drain: every accepted entry commits."""
        with self._q_cond:
            self._stopping = True
            self._q_cond.notify_all()
        if self._started and self._thread.is_alive():
            self._thread.join()

    def close(self) -> None:
        """Drain the queue, then flush and release the WAL (idempotent)."""
        self.stop()
        with self._lock.write():
            wal = self._wal
        wal.close()
