"""The daemon's state machine: detector + WAL + snapshots + locking.

:class:`DetectionService` is the transport-agnostic core of the serving
daemon.  It loads a TPIIN once, wraps an
:class:`~repro.mining.incremental.IncrementalDetector` over the (warm,
immutable) antecedent indexes, and funnels every mutation through a
single-writer/multi-reader lock and a write-ahead log:

1. apply the update to the in-memory detector (validation happens here;
   a rejected update never reaches the log);
2. append the record to the WAL and flush it — only now is the update
   *acknowledged*;
3. every ``snapshot_every`` acknowledged updates, compact: write an
   atomic snapshot of the live arc set and truncate the WAL.

Recovery (:meth:`DetectionService.open`) inverts the pipeline: start
from the trading-free antecedent view, seed it with the snapshot's arcs
(or, on first boot, the TPIIN's own trading arcs), then replay the WAL
tail.  The crash-recovery property suite verifies the result is
byte-identical (up to group ordering) to a batch ``detect()`` over
the surviving arc set.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

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
from repro.obs.tracing import NULL_TRACER, Tracer, TracerLike
from repro.service.config import ServiceConfig
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog

__all__ = ["ArcStatus", "DetectionService"]


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


class DetectionService:
    """Long-lived, durable, concurrency-safe detection state.

    Construct via :meth:`open` (which performs recovery) rather than
    directly; the initializer wires already-recovered parts together.
    """

    #: Attributes that may only be touched under ``self._lock`` —
    #: reads need at least the read lock, mutations the write lock.
    #: Enforced flow-sensitively by reprolint R014.
    _lock_guarded = frozenset(
        {"_detector", "_wal", "_ops_since_snapshot", "_closed", "_recent_traces"}
    )

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
        self._detector = detector
        self._wal = wal
        self._config = config
        self._lock = ReadWriteLock()
        self._ops_since_snapshot = 0
        self._closed = False
        self.metrics = ServiceMetrics()
        self.metrics.count_wal_replay(recovered_records, torn_tail=healed_torn_tail)
        self.recovered_records = recovered_records
        self.recovered_from_snapshot = recovered_from_snapshot
        self.healed_torn_tail = healed_torn_tail
        #: Span tree of the recovery that produced this service.
        self.recovery_trace = recovery_trace
        # Recent per-mutation span trees keyed by the subTPIIN (component)
        # indices they touched, newest last, for /v1/trace.
        self._recent_traces: deque[tuple[tuple[int, ...], dict[str, object]]] = deque(
            maxlen=max(1, config.recent_traces)
        )
        self._trace_mutations = config.recent_traces > 0

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, tpiin: TPIIN, config: ServiceConfig) -> "DetectionService":
        """Load (or initialize) durable state and return a ready service.

        On first boot the TPIIN's own trading arcs (including recorded
        intra-SCS trades) seed the stream.  On restart the snapshot and
        WAL fully determine the arc set and the TPIIN only contributes
        its antecedent network — so the same TPIIN file must be served
        across restarts (a mismatch surfaces as :class:`ServiceError`).
        """
        config.ensure_state_dir()
        tracer = Tracer()
        with tracer.span("recovery") as recovery_span:
            snapshot = read_snapshot(config.snapshot_path)
            wal, replay = WriteAheadLog.open(config.wal_path, fsync=config.fsync)

            with tracer.span("build_detector") as span:
                detector = IncrementalDetector(
                    tpiin.antecedent_view(),
                    collect_groups=config.collect_groups,
                    max_cached_roots=config.max_cached_roots,
                    tracer=tracer,
                )
                span.set(components=detector.component_count)

            if snapshot is not None:
                # The snapshot captures the complete live arc set (baseline
                # included), so the TPIIN's own trading arcs are not re-read.
                with tracer.span("seed_snapshot") as span:
                    for seller, buyer in snapshot.arcs:
                        cls._replay_apply(
                            detector, OP_ADD, seller, buyer, source="snapshot"
                        )
                    span.set(arcs=len(snapshot.arcs))
            else:
                # No snapshot yet: the baseline is the TPIIN's trading arcs;
                # the WAL (if any) holds only the deltas applied on top.
                with tracer.span("seed_baseline") as span:
                    seeded = 0
                    for seller, buyer in tpiin.trading_arcs():
                        detector.add_trading_arc(seller, buyer)
                        seeded += 1
                    for seller, buyer in tpiin.intra_scs_trades:
                        detector.add_trading_arc(seller, buyer)
                        seeded += 1
                    span.set(arcs=seeded)

            floor = snapshot.last_seq if snapshot is not None else 0
            replayed = 0
            with tracer.span("wal_replay") as span:
                for record in replay.records:
                    if record.seq <= floor:
                        # Stale record from a crash between snapshot write
                        # and WAL truncation; the snapshot has it already.
                        continue
                    cls._replay_apply(
                        detector, record.op, record.seller, record.buyer, source="WAL"
                    )
                    replayed += 1
                span.set(replayed=replayed, torn_tail=replay.torn_tail)
            recovery_span.set(
                from_snapshot=snapshot is not None, replayed=replayed
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
    def _replay_apply(
        detector: IncrementalDetector, op: str, seller: str, buyer: str, *, source: str
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

    # ------------------------------------------------------------------
    # mutations (exclusive)
    # ------------------------------------------------------------------
    def add_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Add a trading arc; returns the verdict with proof-chain groups."""
        return self._mutate(OP_ADD, seller, buyer)

    def remove_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Retract a trading arc (e.g. a corrected filing)."""
        return self._mutate(OP_REMOVE, seller, buyer)

    def _mutate(self, op: str, seller: str, buyer: str) -> ArcUpdate:
        with self._lock.write():
            self._ensure_open_locked()
            tracer: TracerLike = Tracer() if self._trace_mutations else NULL_TRACER
            with tracer.span("mutation") as span:
                with tracer.span("apply"):
                    if op == OP_ADD:
                        update = self._detector.add_trading_arc(seller, buyer)
                    else:
                        update = self._detector.remove_trading_arc(seller, buyer)
                if update.applied:
                    # The append must stay inside the critical section: an
                    # update is acknowledged only once durable, and WAL order
                    # must match detector apply order.
                    with tracer.span("wal_append"):
                        self._wal.append(op, str(seller), str(buyer))  # reprolint: disable=R014
                    self.metrics.count_wal_append()
                    self.metrics.count_arc_applied(op)
                    self._ops_since_snapshot += 1
                    if self._ops_since_snapshot >= self._config.snapshot_every:
                        self._compact_locked()
                if tracer.enabled:
                    span.set(
                        op=op,
                        seller=str(seller),
                        buyer=str(buyer),
                        applied=update.applied,
                        suspicious=update.suspicious,
                    )
                record = span.record
            if record is not None:
                components = self._components_of_locked(seller, buyer)
                self._recent_traces.append(
                    (
                        components,
                        {
                            "subtpiins": list(components),
                            "op": op,
                            "arc": [str(seller), str(buyer)],
                            "trace": record.to_dict(),
                        },
                    )
                )
            return update

    def _components_of_locked(self, seller: str, buyer: str) -> tuple[int, ...]:
        components = set()
        for node in (seller, buyer):
            try:
                components.add(self._detector.component_of(node))
            except MiningError:
                continue
        return tuple(sorted(components))

    def apply_batch(self, lines: Sequence[ArcLine]) -> list[dict[str, object]]:
        """Apply parsed NDJSON lines; one report entry per line, in order.

        The single-shard counterpart of the sharded service's bulk
        ingest: lines are applied in chunks of ``group_commit_max``,
        each chunk one write-lock hold with one WAL flush+fsync at the
        end — the same group-commit discipline, so acknowledgement
        still implies durability while the fsync cost amortizes across
        the chunk.
        """
        report: list[dict[str, object]] = []
        chunk_size = max(1, self._config.group_commit_max)
        for start in range(0, len(lines), chunk_size):
            chunk = lines[start : start + chunk_size]
            with self._lock.write():
                self._ensure_open_locked()
                appended = False
                for line in chunk:
                    try:
                        if line.op == OP_ADD:
                            update = self._detector.add_trading_arc(
                                line.seller, line.buyer
                            )
                        else:
                            update = self._detector.remove_trading_arc(
                                line.seller, line.buyer
                            )
                    except MiningError as exc:
                        report.append({"line": line.index, "error": str(exc)})
                        continue
                    if update.applied:
                        self._wal.append(  # reprolint: disable=R014
                            line.op, line.seller, line.buyer, sync=False
                        )
                        appended = True
                        self.metrics.count_wal_append()
                        self.metrics.count_arc_applied(line.op)
                        self._ops_since_snapshot += 1
                    report.append(
                        {
                            "line": line.index,
                            "op": line.op,
                            "arc": [line.seller, line.buyer],
                            "applied": update.applied,
                            "suspicious": update.suspicious,
                            "group_count": update.group_count,
                        }
                    )
                if appended:
                    # Group-commit barrier: one fsync covers the chunk.
                    self._wal.sync()  # reprolint: disable=R014
                    if self._ops_since_snapshot >= self._config.snapshot_every:
                        self._compact_locked()
        return report

    def compact(self) -> Snapshot:
        """Force a snapshot + WAL truncation; returns the snapshot."""
        with self._lock.write():
            self._ensure_open_locked()
            return self._compact_locked()

    def _compact_locked(self) -> Snapshot:
        snapshot = Snapshot(
            last_seq=self._wal.last_seq,
            arcs=tuple(
                (str(seller), str(buyer))
                for seller, buyer in self._detector.trading_arcs()
            ),
        )
        # Snapshot write and WAL truncation must be atomic with respect to
        # mutations: a write between them would be lost on recovery.
        write_snapshot(self._config.snapshot_path, snapshot)  # reprolint: disable=R014
        self._wal.truncate()  # reprolint: disable=R014
        self._ops_since_snapshot = 0
        self.metrics.count_snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # queries (shared)
    # ------------------------------------------------------------------
    def arc_status(self, seller: str, buyer: str) -> ArcStatus:
        with self._lock.read():
            return ArcStatus(
                str(seller),
                str(buyer),
                present=(seller, buyer) in self._detector,
                suspicious=self._detector.is_suspicious_arc(seller, buyer),
                groups=self._detector.groups_for_arc(seller, buyer),
            )

    def result(self) -> DetectionResult:
        """Aggregate result, equal to a batch run over the live arc set."""
        with self._lock.read():
            return self._detector.result()

    def investigate(self, company: str) -> CompanyInvestigation:
        with self._lock.read():
            return investigate_company(self._tpiin, self._detector.result(), company)

    def detectors_payload(self) -> dict[str, object]:
        """The ``GET /v1/detectors`` listing (name, version, config schema)."""
        registry = get_detector_registry()
        return {
            "detectors": [registry.info(name).to_dict() for name in registry.names()]
        }

    def detector_findings(self, detector: str) -> dict[str, object]:
        """Run one registered portfolio detector over the live arc set.

        The live arcs are read under the shared lock, then overlaid onto
        a trading-free antecedent snapshot *outside* the critical
        section, so an expensive detector never stalls mutations.
        """
        registry = get_detector_registry()
        if detector not in registry:
            raise MiningError(
                f"unknown detector {detector!r} "
                f"(choices: {', '.join(registry.names())})"
            )
        with self._lock.read():
            arcs = list(self._detector.trading_arcs())
        snapshot = self._tpiin.antecedent_view()
        for seller, buyer in arcs:
            mapped_seller = snapshot.node_map.get(seller, seller)
            mapped_buyer = snapshot.node_map.get(buyer, buyer)
            if mapped_seller == mapped_buyer:
                snapshot.intra_scs_trades.append((seller, buyer))
            else:
                snapshot.graph.add_arc(mapped_seller, mapped_buyer, EColor.TRADING)
        report = run_detectors(snapshot, [detector], registry=registry)
        return report[detector].to_dict()

    def arc_count(self) -> int:
        with self._lock.read():
            return len(self._detector)

    def health(self) -> dict[str, object]:
        with self._lock.read():
            return {
                "status": "ok" if not self._closed else "closed",
                "arcs": len(self._detector),
                "wal_seq": self._wal.last_seq,
                "uptime_seconds": self.metrics.uptime_seconds,
                "recovered_records": self.recovered_records,
                "recovered_from_snapshot": self.recovered_from_snapshot,
                "healed_torn_tail": self.healed_torn_tail,
            }

    def metrics_payload(self) -> dict[str, object]:
        payload = self.metrics.to_dict()
        with self._lock.read():
            payload["path_cache"] = self._detector.path_cache_stats.to_dict()
            payload["arcs_tracked"] = len(self._detector)
            payload["wal_seq"] = self._wal.last_seq
        return payload

    def trace_payload(self, subtpiin: int) -> dict[str, object]:
        """Recent mutation span trees touching one subTPIIN, newest last.

        ``subtpiin`` is the component index reported by
        ``/result``/``/investigate``; out-of-range indices raise
        :class:`MiningError` (surfaced as HTTP 400 by the server).
        """
        with self._lock.read():
            count = self._detector.component_count
            if not 0 <= subtpiin < count:
                raise MiningError(
                    f"subTPIIN index {subtpiin} out of range [0, {count})"
                )
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
    def close(self) -> None:
        """Flush and release durable state (idempotent)."""
        with self._lock.write():
            if self._closed:
                return
            self._closed = True
            wal = self._wal
        # The final flush happens outside the critical section: once
        # ``_closed`` is set no mutation can reach the WAL, and holding
        # every reader hostage to an fsync would stall shutdown probes.
        wal.close()

    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise ServiceError("the detection service is closed")

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
