"""The detection daemon's state machine: one writer over durable state.

:class:`ShardedDetectionService` owns the live arc set: one bounded
ingest queue, one commit thread applying queued mutations under group
commit, one write-ahead log, one snapshot and one incremental detector
behind a readers/writer lock.  On a box where the fsync dominates the
mutation path, group commit is where the daemon's write throughput
comes from.  The class and module keep their names because deployment
scripts import them.

Earlier releases could partition the arcs across ``--shards N`` workers,
each with its own ``wal-NNNN.jsonl`` and ``snapshot-NNNN.json``; ``open``
folds such a directory into shard 0's files (:func:`_fold_shards`).  The
single-file layout of releases before that (``wal.jsonl`` +
``snapshot.json``) is renamed into shard 0's files.
"""

from __future__ import annotations

import os
import re
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import TypeVar

from repro.analysis.investigate import (
    CompanyInvestigation,
    check_company,
    investigate_company,
)
from repro.detectors.base import DetectionContext
from repro.detectors.registry import DETECTORS, detector_info
from repro.detectors.runner import run_in_context
from repro.errors import BackpressureError, MiningError, ServiceError
from repro.fusion.tpiin import TPIIN
from repro.io.registry_io import ArcLine
from repro.mining.detector import IAT_DETECTOR_NAME, DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.mining.incremental import (
    ArcUpdate,
    DetectionSummary,
    IncrementalDetector,
    PageCursor,
)
from repro.obs.tracing import NULL_TRACER, Tracer, TracerLike
from repro.service.config import ServiceConfig
from repro.service.findings import FindingsRun
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog, read_wal

__all__ = ["ArcStatus", "ShardedDetectionService"]

#: Knuth's multiplicative hash constant: the N-shard daemon placed a
#: component cluster on shard ``(min_component * this) % 2**32 % N``.
_HOME_MULTIPLIER = 2654435761

_T = TypeVar("_T")

#: How long an HTTP thread waits for its queued mutation's verdict
#: before declaring the commit thread dead.  Generous: a full group of
#: fsyncs plus a compaction finishes orders of magnitude faster.
_RESOLVE_TIMEOUT_SECONDS = 60.0

#: One mutation's verdict: the update, or the error that refused it.
_Outcome = ArcUpdate | BaseException
#: ``(subTPIINs touched, trace payload)`` of one traced mutation.
_Trace = tuple[tuple[int, ...], dict[str, object]]

#: File names of the single-file layout earlier releases wrote; ``open``
#: renames them to shard 0's files.
_LEGACY_WAL = "wal.jsonl"
_LEGACY_SNAPSHOT = "snapshot.json"

#: A per-shard WAL or snapshot file name; group 1 or 2 is the index.
_SHARD_FILE = re.compile(r"wal-(\d+)\.jsonl|snapshot-(\d+)\.json")


def _chunks(items: Sequence[_T], size: int) -> Iterator[Sequence[_T]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _sync_dir(path: Path) -> None:
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _baseline_arcs(tpiin: TPIIN) -> list[tuple[str, str]]:
    """The TPIIN's own trading arcs: a fresh state directory's arc set."""
    return [(str(s), str(b)) for s, b in tpiin.trading_arcs()] + [
        (str(s), str(b)) for s, b in tpiin.intra_scs_trades
    ]


def _prepare_state_dir(
    config: ServiceConfig, tpiin: TPIIN, component_of: Callable[[str], int]
) -> None:
    """Bring the state directory to the one-writer layout before recovery.

    Legacy single-file state is renamed into shard 0 (snapshot first,
    then WAL; a crash in between is finished at the next open).  A
    directory written by the N-shard daemon is folded into shard 0.
    """
    state_dir = config.ensure_state_dir()
    renamed = False
    for name, target in (
        (_LEGACY_SNAPSHOT, config.shard_snapshot_path(0)),
        (_LEGACY_WAL, config.shard_wal_path(0)),
    ):
        if (state_dir / name).exists():
            os.rename(state_dir / name, target)
            renamed = True
    if renamed:
        _sync_dir(state_dir)
    indexes = [
        int(match.group(1) or match.group(2))
        for match in map(_SHARD_FILE.fullmatch, os.listdir(state_dir))
        if match is not None
    ]
    count = max(indexes, default=0) + 1
    if count > 1:
        _fold_shards(config, count, tpiin, component_of)


def _fold_shards(
    config: ServiceConfig,
    count: int,
    tpiin: TPIIN,
    component_of: Callable[[str], int],
) -> None:
    """Fold a ``count``-shard state directory into shard 0's files.

    Each shard's arcs are rebuilt on their own: its snapshot (or, for a
    shard that never compacted, its hash-home share of the baseline
    arcs), then its own WAL records above that snapshot's floor.  One
    merged sequence-ordered stream would be wrong: a migration logged
    the destination's add before the source's remove, so merged they
    delete the arc.  An arc on two shards (a crash mid-migration) is
    live.  The union goes to ``snapshot-0000.json`` at the highest
    sequence number in the directory, so shard 0's own WAL records all
    fall below its floor.

    Every step leaves a directory that folds to the same union:

    1. the union replaces shard 0's snapshot (atomically);
    2. every other shard gets an empty snapshot at that sequence, so it
       adds nothing — not even a baseline share;
    3. their files go, highest index first and WAL before snapshot, the
       directory synced after each: no shard below the highest left
       ever loses its empty snapshot, and the shard count the baseline
       shares hash over never changes while a share could still count.
    """
    shares: list[set[tuple[str, str]]] | None = None
    union: set[tuple[str, str]] = set()
    top = 0
    for index in range(count):
        snapshot = read_snapshot(config.shard_snapshot_path(index))
        replay = read_wal(config.shard_wal_path(index))
        if snapshot is not None:
            arcs = set(snapshot.arcs)
            floor = snapshot.last_seq
        else:
            if shares is None:
                shares = _baseline_shares(tpiin, component_of, count)
            arcs = set(shares[index])
            floor = 0
        for record in replay.records:
            if record.seq <= floor:
                continue
            if record.op == OP_ADD:
                arcs.add((record.seller, record.buyer))
            else:
                arcs.discard((record.seller, record.buyer))
        union |= arcs
        top = max(top, floor, replay.last_seq)
    write_snapshot(
        config.shard_snapshot_path(0), Snapshot(last_seq=top, arcs=tuple(sorted(union)))
    )
    others = range(count - 1, 0, -1)
    for index in others:
        write_snapshot(config.shard_snapshot_path(index), Snapshot(last_seq=top, arcs=()))
    for index in others:
        for path in (config.shard_wal_path(index), config.shard_snapshot_path(index)):
            path.unlink(missing_ok=True)
            _sync_dir(config.state_dir)


def _baseline_shares(
    tpiin: TPIIN, component_of: Callable[[str], int], count: int
) -> list[set[tuple[str, str]]]:
    """The baseline arcs each of ``count`` shards seeded itself with.

    The N-shard daemon unioned the components the baseline arcs connect
    and homed each cluster by its minimum component index.
    """
    parent: dict[int, int] = {}

    def find(component: int) -> int:
        # Roots are set minima: a union hangs the larger root below.
        root = component
        while parent.get(root, root) != root:
            root = parent[root]
        while component != root:
            parent[component], component = root, parent[component]
        return root

    baseline = _baseline_arcs(tpiin)
    for seller, buyer in baseline:
        a, b = find(component_of(seller)), find(component_of(buyer))
        if a != b:
            parent[max(a, b)] = min(a, b)
    shares: list[set[tuple[str, str]]] = [set() for _ in range(count)]
    for seller, buyer in baseline:
        home = find(component_of(seller)) * _HOME_MULTIPLIER % 2**32 % count
        shares[home].add((seller, buyer))
    return shares


class ArcStatus:
    """Read-only view of one trading arc (the ``GET /arcs`` payload)."""

    __slots__ = ("seller", "buyer", "present", "suspicious", "groups")

    def __init__(
        self,
        seller: str,
        buyer: str,
        *,
        present: bool,
        suspicious: bool,
        groups: Sequence[SuspiciousGroup],
    ) -> None:
        self.seller = seller
        self.buyer = buyer
        self.present = present
        self.suspicious = suspicious
        self.groups = tuple(groups)


class _PendingMutation:
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


class ShardedDetectionService:
    """The daemon's one writer behind a bounded, group-committed queue.

    Owns the incremental detector, the write-ahead log, the snapshot, a
    readers/writer lock and the ingest queue.  HTTP threads enqueue
    single-arc mutations (a full queue sheds with
    :class:`~repro.errors.BackpressureError` instead of blocking — the
    429 path must never deadlock), and one commit thread drains the
    queue in groups of up to ``group_commit_max``, applies each mutation
    under the write lock, appends the WAL records unflushed, and issues
    **one** flush+fsync for the whole group before acknowledging any of
    them.  The HTTP server and the ``serve`` CLI run it.  Construct via
    :meth:`open`.
    """

    #: Attributes that may only be touched under ``self._lock`` —
    #: reads need at least the read lock, mutations the write lock.
    #: Enforced flow-sensitively by reprolint R014.  The ingest queue is
    #: *not* in this set: it has its own condition variable so admission
    #: control never contends with the detector's critical sections.
    _lock_guarded = frozenset({"_detector", "_wal", "_ops_since_snapshot"})

    def __init__(
        self,
        tpiin: TPIIN,
        detector: IncrementalDetector,
        wal: WriteAheadLog,
        config: ServiceConfig,
        *,
        recovered_records: int = 0,
        recovered_from_snapshot: bool = False,
        healed_torn_tail: bool = False,
        recovery_trace: dict[str, object] | None = None,
    ) -> None:
        self._tpiin = tpiin
        self._config = config
        self._detector = detector
        self._wal = wal
        self._lock = ReadWriteLock()
        self._ops_since_snapshot = 0
        self._snapshot_path = config.shard_snapshot_path(0)
        self._subtpiin_count = detector.component_count
        self._antecedent = detector.antecedent
        #: Detector name -> its newest run (:meth:`findings_run`).
        self._findings_runs: dict[str, FindingsRun] = {}
        self.metrics = ServiceMetrics()
        self.metrics.count_wal_replay(recovered_records, torn_tail=healed_torn_tail)
        self.metrics.set_queue_depth(0, config.ingest_queue_limit)
        self.recovered_records = recovered_records
        self.recovered_from_snapshot = recovered_from_snapshot
        self.healed_torn_tail = healed_torn_tail
        #: Span tree of the recovery that produced this service.
        self.recovery_trace = recovery_trace
        self._trace_mutations = config.recent_traces > 0
        self._trace_lock = threading.Lock()
        self._recent_traces: deque[_Trace] = deque(maxlen=max(1, config.recent_traces))
        # Admission state, guarded by ``_q_cond``.
        self._queue: deque[_PendingMutation] = deque()
        self._q_cond = threading.Condition()
        self._closed = False
        self._failed: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-writer", daemon=False
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, tpiin: TPIIN, config: ServiceConfig) -> "ShardedDetectionService":
        """Load (or initialize) durable state and return a ready service.

        Recovery seeds the detector from the snapshot — or, on first
        boot, from the TPIIN's own trading arcs — in one
        :meth:`~repro.mining.incremental.IncrementalDetector.seed` call,
        then replays the WAL records above the snapshot's floor one at a
        time.  Older layouts are brought to shard 0's files first (see
        :func:`_prepare_state_dir`).
        """
        tracer = Tracer()
        with tracer.span("recovery") as recovery_span:
            with tracer.span("build_detector") as span:
                detector = IncrementalDetector(
                    tpiin.antecedent_view(),
                    max_cached_roots=config.max_cached_roots,
                    tracer=tracer,
                )
                span.set(components=detector.component_count)
            _prepare_state_dir(config, tpiin, detector.component_of)
            snapshot = read_snapshot(config.shard_snapshot_path(0))
            floor = snapshot.last_seq if snapshot is not None else 0
            wal, replay = WriteAheadLog.open(
                config.shard_wal_path(0), fsync=config.fsync, floor=floor
            )
            seed = snapshot.arcs if snapshot is not None else _baseline_arcs(tpiin)
            step = f"{'snapshot' if snapshot is not None else 'baseline'} seed"
            replayed = 0
            try:
                detector.seed(seed, tracer=tracer)
                with tracer.span("wal_replay") as span:
                    for record in replay.records:
                        if record.seq <= floor:
                            # Stale record from a crash between snapshot
                            # write and WAL truncation; the snapshot has it.
                            continue
                        op, seller, buyer = record.op, record.seller, record.buyer
                        step = f"WAL replay of {op} ({seller!r} -> {buyer!r})"
                        if op == OP_ADD:
                            detector.add_trading_arc(seller, buyer)
                        else:
                            detector.remove_trading_arc(seller, buyer)
                        replayed += 1
                    span.set(replayed=replayed)
            except MiningError as exc:
                raise ServiceError(
                    f"{step} failed: {exc}; is the daemon serving the same TPIIN "
                    "it was started with?"
                ) from exc
            recovery_span.set(
                from_snapshot=snapshot is not None, replayed=replayed, seeded=len(seed)
            )
            recovery_record = recovery_span.record

        return cls(
            tpiin,
            detector,
            wal,
            config,
            recovered_records=replayed,
            recovered_from_snapshot=snapshot is not None,
            healed_torn_tail=replay.torn_tail,
            recovery_trace=(
                recovery_record.to_dict() if recovery_record is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Add a trading arc; returns the verdict with proof-chain groups."""
        return self._enqueue(OP_ADD, str(seller), str(buyer)).wait()

    def remove_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Retract a trading arc (e.g. a corrected filing)."""
        return self._enqueue(OP_REMOVE, str(seller), str(buyer)).wait()

    def _enqueue(self, op: str, seller: str, buyer: str) -> _PendingMutation:
        """Queue one mutation for the commit thread; sheds when full."""
        entry = _PendingMutation(op, seller, buyer)
        limit = self._config.ingest_queue_limit
        with self._q_cond:
            if self._closed:
                raise ServiceError("the detection service is closed")
            if self._failed is not None:
                raise ServiceError(f"the writer failed: {self._failed}")
            if len(self._queue) >= limit:
                self.metrics.count_shed()
                raise BackpressureError(
                    f"ingest queue is full ({len(self._queue)}/{limit})",
                    retry_after=self._config.retry_after_seconds,
                )
            self._queue.append(entry)
            depth = len(self._queue)
            self._q_cond.notify()
        self.metrics.set_queue_depth(depth, limit)
        return entry

    def apply_batch(self, lines: Sequence[ArcLine]) -> list[dict[str, object]]:
        """Apply parsed NDJSON lines; one report entry per line, in order.

        The batch bypasses the ingest queue (the request body *is* the
        batch) but shares the commit thread's critical section: one
        write-lock hold and one fsync per ``group_commit_max`` chunk.
        Batch lines are not traced: one batch would evict every
        single-arc trace from the ``/v1/trace`` ring.  A chunk the
        writer refuses (poisoned, or its commit failed) reports the
        error on each of its lines.
        """
        self._ensure_open()
        report: list[dict[str, object]] = []
        for chunk in _chunks(lines, self._config.group_commit_max):
            ops = [(line.op, line.seller, line.buyer) for line in chunk]
            try:
                with self._lock.write():
                    outcomes, _ = self._apply_group_locked(ops, trace=False)
            except ServiceError as exc:
                report.extend({"line": line.index, "error": str(exc)} for line in chunk)
                continue
            for line, outcome in zip(chunk, outcomes):
                if isinstance(outcome, BaseException):
                    report.append({"line": line.index, "error": str(outcome)})
                else:
                    report.append({"line": line.index, **_line_report(line.op, outcome)})
        return report

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

    def _take(self) -> list[_PendingMutation] | None:
        """Next group of up to ``group_commit_max`` queued mutations.

        Returns ``None`` once closed *and* drained — shutdown commits
        every accepted mutation before the thread exits.
        """
        group_max = self._config.group_commit_max
        with self._q_cond:
            while not self._queue and not self._closed:
                self._q_cond.wait()
            if not self._queue:
                return None
            group = [
                self._queue.popleft()
                for _ in range(min(group_max, len(self._queue)))
            ]
            depth = len(self._queue)
        self.metrics.set_queue_depth(depth, self._config.ingest_queue_limit)
        return group

    def _commit_group(self, group: list[_PendingMutation]) -> None:
        ops = [(pending.op, pending.seller, pending.buyer) for pending in group]
        with self._lock.write():
            outcomes, traces = self._apply_group_locked(
                ops, trace=self._trace_mutations
            )
        if traces:
            with self._trace_lock:
                self._recent_traces.extend(traces)
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
        with self._q_cond:
            failed = self._failed
        if failed is not None:
            raise ServiceError(f"the writer failed: {failed}")
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
                        self.metrics.count_wal_append()
                        self.metrics.count_arc_applied(op)
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
        self.metrics.count_snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # queries (shared lock)
    # ------------------------------------------------------------------
    def arc_status(self, seller: str, buyer: str) -> ArcStatus:
        seller, buyer = str(seller), str(buyer)
        with self._lock.read():
            return ArcStatus(
                seller,
                buyer,
                present=(seller, buyer) in self._detector,
                suspicious=self._detector.is_suspicious_arc(seller, buyer),
                groups=self._detector.groups_for_arc(seller, buyer),
            )

    def result(self) -> DetectionResult:
        """Aggregate result, equal to a batch run over the live arc set."""
        with self._lock.read():
            return self._detector.result()

    def summary(self) -> DetectionSummary:
        """:meth:`result`'s counts, read from the detector's tallies."""
        with self._lock.read():
            return self._detector.summary()

    def groups_page(
        self, after: PageCursor | None, limit: int
    ) -> tuple[list[SuspiciousGroup], PageCursor | None]:
        """One page of :meth:`result`'s groups and the next page's cursor
        (:meth:`IncrementalDetector.groups_page`)."""
        with self._lock.read():
            return self._detector.groups_page(after, limit)

    def investigate(self, company: str) -> CompanyInvestigation:
        """The drill-down for one company, read from its subTPIIN only.

        A company's groups all lie in its antecedent component, so the
        component's live result holds every one of them.
        """
        check_company(self._tpiin, company)
        with self._lock.read():
            scoped = self._detector.component_result(company)
        return investigate_company(self._tpiin, scoped, company)

    def detectors_payload(self) -> dict[str, object]:
        """The ``GET /v1/detectors`` listing (name, version, config schema)."""
        return {"detectors": [detector_info(name).to_dict() for name in DETECTORS]}

    def findings_run(self, detector: str) -> FindingsRun:
        """One portfolio detector's run over the live arc set, cached.

        The service keeps the newest run per detector, keyed on the WAL
        sequence number read under the same read lock as the live arcs:
        while no write lands, every read (each page of a walk) shares
        one run.  Only the copy of the live arcs (and, for
        ``iat-groups``, of their groups) is taken under the lock; the
        detector runs after it, over the immutable antecedent view plus
        those arcs.
        """
        if detector not in DETECTORS:
            raise MiningError(
                f"unknown detector {detector!r} (choices: {', '.join(DETECTORS)})"
            )
        with self._lock.read():
            seq = self._wal.last_seq
            cached = self._findings_runs.get(detector)
            if cached is not None and cached.seq == seq:
                return cached
            arcs = self._detector.trading_arcs()
            iat = self._detector.result() if detector == IAT_DETECTOR_NAME else None
        context = DetectionContext(tpiin=self._antecedent, live_arcs=arcs, iat_result=iat)
        run = FindingsRun(seq, run_in_context(context, [detector])[detector])
        # Two readers may race here; either run is a correct one, and a
        # stale one only costs the next reader a rerun.
        self._findings_runs[detector] = run
        return run

    def arc_count(self) -> int:
        with self._lock.read():
            return len(self._detector)

    def health(self) -> dict[str, object]:
        """Liveness summary; ``status`` is ``"ok"`` only when serving.

        A commit failure poisons the writer: the status turns
        ``"failed"`` and ``error`` says why.
        """
        with self._q_cond:
            closed, error = self._closed, self._failed
        with self._lock.read():
            arcs, wal_seq = len(self._detector), self._wal.last_seq
        return {
            "status": "closed" if closed else "failed" if error is not None else "ok",
            "error": None if error is None else str(error),
            "arcs": arcs,
            "wal_seq": wal_seq,
            "uptime_seconds": self.metrics.uptime_seconds,
            "recovered_records": self.recovered_records,
            "recovered_from_snapshot": self.recovered_from_snapshot,
            "healed_torn_tail": self.healed_torn_tail,
        }

    def metrics_payload(self) -> dict[str, object]:
        payload = self.metrics.to_dict()
        with self._lock.read():
            cache = self._detector.path_cache_stats
            arcs, wal_seq = len(self._detector), self._wal.last_seq
        with self._q_cond:
            depth = len(self._queue)
        payload["path_cache"] = cache.to_dict()
        payload["arcs_tracked"] = arcs
        payload["wal_seq"] = wal_seq
        payload["queue_depth"] = depth
        return payload

    def trace_payload(self, subtpiin: int) -> dict[str, object]:
        """Recent mutation span trees touching one subTPIIN, newest last."""
        count = self._subtpiin_count
        if not 0 <= subtpiin < count:
            raise MiningError(
                f"subTPIIN index {subtpiin} out of range [0, {count})"
            )
        with self._trace_lock:
            matching = [
                payload
                for components, payload in self._recent_traces
                if subtpiin in components
            ]
        return {
            "subtpiin": subtpiin,
            "tracing_enabled": self._trace_mutations,
            "traces": matching,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def compact(self) -> Snapshot:
        """Force a snapshot + WAL truncation."""
        self._ensure_open()
        with self._lock.write():
            return self._compact_locked()

    def close(self) -> None:
        """Stop accepting work, drain the queue (every accepted entry
        commits), then flush and release the WAL (idempotent)."""
        with self._q_cond:
            self._closed = True
            self._q_cond.notify_all()
        if self._thread.is_alive():
            self._thread.join()
        with self._lock.write():
            wal = self._wal
        wal.close()

    def _ensure_open(self) -> None:
        with self._q_cond:
            if self._closed:
                raise ServiceError("the detection service is closed")

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _line_report(op: str, update: ArcUpdate) -> dict[str, object]:
    seller, buyer = update.arc
    return {
        "op": op,
        "arc": [str(seller), str(buyer)],
        "applied": update.applied,
        "suspicious": update.suspicious,
        "group_count": update.group_count,
    }
