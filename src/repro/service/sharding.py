"""The detection daemon's state machine: one writer over durable state.

:class:`ShardedDetectionService` keeps the live arc set in a single
:class:`~repro.service.shard.ShardWorker`: one bounded ingest queue, one
commit thread applying queued mutations under group commit, one
write-ahead log, one snapshot and one incremental detector.  The class
and module keep their names because deployment scripts import them.

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

from repro.analysis.investigate import CompanyInvestigation, investigate_company
from repro.detectors.registry import get_detector_registry
from repro.detectors.runner import run_detectors
from repro.errors import MiningError, ServiceError
from repro.fusion.tpiin import TPIIN
from repro.io.registry_io import ArcLine
from repro.mining.detector import DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.mining.incremental import ArcUpdate, IncrementalDetector
from repro.model.colors import EColor
from repro.obs.tracing import Tracer
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.shard import ShardWorker
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog, read_wal

__all__ = ["ArcStatus", "ShardedDetectionService"]

#: Knuth's multiplicative hash constant: the N-shard daemon placed a
#: component cluster on shard ``(min_component * this) % 2**32 % N``.
_HOME_MULTIPLIER = 2654435761

_T = TypeVar("_T")

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


class ShardedDetectionService:
    """The daemon's one writer behind a bounded, group-committed queue.

    The HTTP server and the ``serve`` CLI run it.  Construct via
    :meth:`open`.
    """

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
        self._closed = threading.Event()
        self._subtpiin_count = detector.component_count
        self.metrics = ServiceMetrics()
        self.metrics.count_wal_replay(recovered_records, torn_tail=healed_torn_tail)
        self.recovered_records = recovered_records
        self.recovered_from_snapshot = recovered_from_snapshot
        self.healed_torn_tail = healed_torn_tail
        #: Span tree of the recovery that produced this service.
        self.recovery_trace = recovery_trace
        self._trace_lock = threading.Lock()
        self._recent_traces: deque[tuple[tuple[int, ...], dict[str, object]]] = deque(
            maxlen=max(1, config.recent_traces)
        )
        self._trace_mutations = config.recent_traces > 0
        self._writer = ShardWorker(
            detector,
            wal,
            config,
            self.metrics,
            on_trace=self._record_trace if self._trace_mutations else None,
        )
        self.metrics.set_queue_depth(0, config.ingest_queue_limit)

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, tpiin: TPIIN, config: ServiceConfig) -> "ShardedDetectionService":
        """Load (or initialize) durable state and return a ready service.

        Recovery seeds the detector from the snapshot — or, on first
        boot, from the TPIIN's own trading arcs — then replays the WAL
        records above the snapshot's floor.  Older layouts are brought
        to shard 0's files first (see :func:`_prepare_state_dir`).
        """
        tracer = Tracer()
        with tracer.span("recovery") as recovery_span:
            with tracer.span("build_detector") as span:
                detector = IncrementalDetector(
                    tpiin.antecedent_view(),
                    collect_groups=config.collect_groups,
                    max_cached_roots=config.max_cached_roots,
                    tracer=tracer,
                    ingest_baseline=False,
                )
                span.set(components=detector.component_count)
            _prepare_state_dir(config, tpiin, detector.component_of)
            snapshot = read_snapshot(config.shard_snapshot_path(0))
            floor = snapshot.last_seq if snapshot is not None else 0
            wal, replay = WriteAheadLog.open(
                config.shard_wal_path(0), fsync=config.fsync, floor=floor
            )
            with tracer.span("seed") as span:
                source = "snapshot" if snapshot is not None else "baseline"
                seed = snapshot.arcs if snapshot is not None else _baseline_arcs(tpiin)
                for seller, buyer in seed:
                    cls._recover_apply(detector, OP_ADD, seller, buyer, source=source)
                span.set(arcs=len(seed))
            replayed = 0
            with tracer.span("wal_replay") as span:
                for record in replay.records:
                    if record.seq <= floor:
                        # Stale record from a crash between snapshot write
                        # and WAL truncation; the snapshot has it already.
                        continue
                    cls._recover_apply(
                        detector, record.op, record.seller, record.buyer, source="WAL"
                    )
                    replayed += 1
                span.set(replayed=replayed)
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

    @staticmethod
    def _recover_apply(
        detector: IncrementalDetector,
        op: str,
        seller: str,
        buyer: str,
        *,
        source: str,
    ) -> None:
        try:
            if op == OP_ADD:
                detector.add_trading_arc(seller, buyer)
            elif op == OP_REMOVE:
                detector.remove_trading_arc(seller, buyer)
            else:  # unreachable for records that passed WAL validation
                raise ServiceError(f"unknown replayed operation {op!r}")
        except MiningError as exc:
            raise ServiceError(
                f"{source} replay of {op} ({seller!r} -> {buyer!r}) failed: {exc}; "
                "is the daemon serving the same TPIIN it was started with?"
            ) from exc

    def _record_trace(
        self, components: tuple[int, ...], payload: dict[str, object]
    ) -> None:
        with self._trace_lock:
            self._recent_traces.append((components, payload))

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Add a trading arc; returns the verdict with proof-chain groups."""
        return self._submit(OP_ADD, str(seller), str(buyer))

    def remove_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Retract a trading arc (e.g. a corrected filing)."""
        return self._submit(OP_REMOVE, str(seller), str(buyer))

    def _submit(self, op: str, seller: str, buyer: str) -> ArcUpdate:
        self._ensure_open()
        return self._writer.submit(op, seller, buyer).wait()

    def apply_batch(self, lines: Sequence[ArcLine]) -> list[dict[str, object]]:
        """Apply parsed NDJSON lines; one report entry per line, in order.

        One write-lock hold and one fsync per ``group_commit_max`` chunk.
        A chunk the writer refuses (poisoned, or its commit failed)
        reports the error on each of its lines.
        """
        self._ensure_open()
        report: list[dict[str, object]] = []
        for chunk in _chunks(lines, self._config.group_commit_max):
            try:
                outcomes = self._writer.apply_chunk(
                    [(line.op, line.seller, line.buyer) for line in chunk]
                )
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
    # queries
    # ------------------------------------------------------------------
    def arc_status(self, seller: str, buyer: str) -> ArcStatus:
        seller, buyer = str(seller), str(buyer)
        present, suspicious, groups = self._writer.arc_view(seller, buyer)
        return ArcStatus(
            seller, buyer, present=present, suspicious=suspicious, groups=groups
        )

    def result(self) -> DetectionResult:
        """Aggregate result, equal to a batch run over the live arc set."""
        return self._writer.result()

    def investigate(self, company: str) -> CompanyInvestigation:
        return investigate_company(self._tpiin, self.result(), company)

    def detectors_payload(self) -> dict[str, object]:
        """The ``GET /v1/detectors`` listing (name, version, config schema)."""
        registry = get_detector_registry()
        return {
            "detectors": [registry.info(name).to_dict() for name in registry.names()]
        }

    def detector_findings(self, detector: str) -> dict[str, object]:
        """Run one registered portfolio detector over the live arc set."""
        registry = get_detector_registry()
        if detector not in registry:
            raise MiningError(
                f"unknown detector {detector!r} "
                f"(choices: {', '.join(registry.names())})"
            )
        snapshot = self._tpiin.antecedent_view()
        for seller, buyer in self._writer.trading_arcs():
            mapped_seller = snapshot.node_map.get(seller, seller)
            mapped_buyer = snapshot.node_map.get(buyer, buyer)
            if mapped_seller == mapped_buyer:
                snapshot.intra_scs_trades.append((seller, buyer))
            else:
                snapshot.graph.add_arc(mapped_seller, mapped_buyer, EColor.TRADING)
        report = run_detectors(snapshot, [detector], registry=registry)
        return report[detector].to_dict()

    def arc_count(self) -> int:
        return self._writer.arc_count()

    def health(self) -> dict[str, object]:
        """Liveness summary; ``status`` is ``"ok"`` only when serving.

        A commit failure poisons the writer: the status turns
        ``"failed"`` and ``error`` says why.
        """
        error = self._writer.failure()
        arcs, wal_seq, _ = self._writer.stats()
        return {
            "status": (
                "closed"
                if self._closed.is_set()
                else "failed" if error is not None else "ok"
            ),
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
        arcs, wal_seq, cache = self._writer.stats()
        payload["path_cache"] = cache.to_dict()
        payload["arcs_tracked"] = arcs
        payload["wal_seq"] = wal_seq
        payload["queue_depth"] = self._writer.queue_depth()
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
        return self._writer.compact()

    def close(self) -> None:
        """Drain the queue, then flush and release the WAL (idempotent)."""
        self._closed.set()
        self._writer.close()

    def _ensure_open(self) -> None:
        if self._closed.is_set():
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
