"""The component-sharded detection service: router + shards + merges.

:class:`ShardedDetectionService` splits the serving daemon's state into
N :class:`~repro.service.shard.ShardWorker` partitions, each owning a
disjoint set of weakly connected antecedent components — sound because
detection is arc-decomposable (a suspicious group contains exactly one
trading arc, so an arc's groups depend only on that arc and the static
antecedent network, never on arcs elsewhere).  A thin router
consistent-hashes each mutation onto its component cluster's *home*
shard; queries fan out and merge.

Placement is a locality policy, never a correctness invariant:

* the **ownership map** (arc key -> shard index) is authoritative — an
  arc lives on exactly one shard, and every op on an existing arc
  routes to its owner regardless of where hashing would put it today;
* the **home** of a component cluster is a hash of the *minimum*
  original component index in its union-find set, which makes the
  mapping independent of union order and therefore stable across
  recovery replays;
* a trading arc that bridges two clusters homed on different shards
  triggers a **merge**: a coordinator job rehomes the smaller-min
  cluster's arcs onto the merged home (append the adds to the
  destination WAL and sync *first*, then the removes to the source —
  a crash can duplicate an arc, never lose one; recovery's dedupe pass
  keeps a single deterministic copy).

Every WAL record carries a globally allocated sequence number, so
recovery merges the N shard logs into one deterministic replay order.
The shard count is therefore fixed for a state directory: ``open``
refuses a directory written at another count, and upgrades the
single-file layout of earlier releases (``wal.jsonl`` +
``snapshot.json``) into shard 0 of a one-shard service.
"""

from __future__ import annotations

import os
import re
import threading
from collections import Counter, deque
from collections.abc import Callable, Iterator, Sequence
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
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.shard import PendingMutation, ShardWorker
from repro.service.snapshot import Snapshot, read_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, ReplayResult, WALRecord, WriteAheadLog

__all__ = ["ArcStatus", "ShardedDetectionService"]

#: Knuth's multiplicative hash constant; spreads small consecutive
#: component indices across shards far better than a plain modulo.
_HOME_MULTIPLIER = 2654435761

_T = TypeVar("_T")

#: File names of the single-file layout earlier releases wrote; a
#: one-shard open renames them to shard 0's files.
_LEGACY_WAL = "wal.jsonl"
_LEGACY_SNAPSHOT = "snapshot.json"

#: A per-shard WAL or snapshot file name; group 1 or 2 is the index.
_SHARD_FILE = re.compile(r"wal-(\d+)\.jsonl|snapshot-(\d+)\.json")


def _home_of(min_component: int, shards: int) -> int:
    """Shard index for the cluster whose minimum component index is given.

    Depends only on the *minimum* original component index of the
    merged set, which is invariant under the order unions happened in —
    so runtime routing and recovery replay agree on every home.
    """
    return (min_component * _HOME_MULTIPLIER) % (2**32) % shards


def _chunks(items: Sequence[_T], size: int) -> Iterator[Sequence[_T]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _prepare_state_dir(config: ServiceConfig) -> None:
    """Pin the state directory to ``config.shards`` before recovery reads it.

    Refuses a directory that holds state for another shard count: shard
    files past the new count would go unread, and a baseline re-seeded
    by hash home would undo acknowledged removes.  Legacy single-file
    state counts as one shard and is renamed into shard 0 (snapshot
    first, then WAL; a crash in between is finished at the next open).
    Every shard WAL is then created, highest index first, so the count
    stays readable from the directory even after a crash mid-creation.
    """
    state_dir = config.ensure_state_dir()
    n = config.shards
    legacy = [
        name for name in (_LEGACY_SNAPSHOT, _LEGACY_WAL) if (state_dir / name).exists()
    ]
    indexes = {
        int(match.group(1) or match.group(2))
        for match in map(_SHARD_FILE.fullmatch, os.listdir(state_dir))
        if match is not None
    }
    if legacy:
        indexes.add(0)
    held = max(indexes) + 1 if indexes else n
    if held != n:
        raise ServiceError(
            f"state directory {state_dir} holds state for {held} shard(s); "
            f"restart with --shards {held} (a state directory's shard count "
            "is fixed)"
        )
    changed = False
    for name, target in (
        (_LEGACY_SNAPSHOT, config.shard_snapshot_path(0)),
        (_LEGACY_WAL, config.shard_wal_path(0)),
    ):
        if name in legacy:
            os.rename(state_dir / name, target)
            changed = True
    for index in reversed(range(n)):
        path = config.shard_wal_path(index)
        if not path.exists():
            path.touch()
            changed = True
    if changed:
        dir_fd = os.open(state_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


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


class _UnionFind:
    """Union-by-size over component indices, tracking each set's minimum.

    ``find`` deliberately does *not* path-compress: lookups happen under
    the router's shared (read) lock from many threads, so they must not
    mutate.  Union-by-size keeps trees logarithmic without compression.
    """

    __slots__ = ("_parent", "_size", "_min")

    def __init__(self, count: int) -> None:
        self._parent = list(range(count))
        self._size = [1] * count
        self._min = list(range(count))

    def find(self, index: int) -> int:
        while self._parent[index] != index:
            index = self._parent[index]
        return index

    def min_of(self, index: int) -> int:
        return self._min[self.find(index)]

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._min[ra] = min(self._min[ra], self._min[rb])
        return True


class _Plan:
    """Routing verdict for one mutation."""

    __slots__ = ("kind", "shard", "src", "dst", "src_root")

    def __init__(
        self,
        kind: str,
        *,
        shard: int = 0,
        src: int = 0,
        dst: int = 0,
        src_root: int = 0,
    ) -> None:
        self.kind = kind  # "enqueue" | "merge"
        self.shard = shard
        self.src = src
        self.dst = dst
        self.src_root = src_root


class ShardedDetectionService:
    """N shard workers behind a consistent-hashing router.

    The daemon's one state machine at every shard count, including the
    default ``shards=1``: the HTTP server and the ``serve`` CLI run it.
    Construct via :meth:`open`.
    """

    #: Router state guarded by the routing lock (R014): the ownership
    #: map and the component union-find.  Shard state lives inside the
    #: workers, each under its own lock.
    _lock_guarded = frozenset({"_ownership", "_union", "_closed"})
    _lock_attr = "_route_lock"

    def __init__(
        self,
        tpiin: TPIIN,
        view: TPIIN,
        detectors: list[IncrementalDetector],
        wals: list[WriteAheadLog],
        config: ServiceConfig,
        *,
        union: _UnionFind,
        ownership: dict[tuple[str, str], int],
        next_seq_start: int,
        recovered_records: int = 0,
        recovered_from_snapshot: bool = False,
        healed_torn_tail: bool = False,
        recovery_trace: dict[str, object] | None = None,
        start_workers: bool = True,
    ) -> None:
        self._tpiin = tpiin
        self._view = view
        self._detectors = detectors
        self._config = config
        self._route_lock = ReadWriteLock()
        self._union = union
        self._ownership = ownership
        self._closed = False
        # Global sequence allocator; its own mutex so WAL stamping never
        # contends with routing.
        self._seq_lock = threading.Lock()
        self._seq = next_seq_start
        # Serializes cross-shard merges: with at most one multi-shard
        # locker at a time (acquiring shard locks in index order), no
        # lock-order cycle can form with the single-shard workers.
        self._merge_mutex = threading.Lock()
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
        on_trace = self._record_trace if self._trace_mutations else None
        # One shard owns every arc: the ownership map and union-find would
        # have no reader, so routing and its per-mutation bookkeeping are
        # skipped (``_plan`` answers shard 0).
        self._routed = config.shards > 1
        self._shards = [
            ShardWorker(
                index,
                detectors[index],
                wals[index],
                config,
                self.metrics,
                next_seq=self._allocate_seq,
                owner_of=self._owner_lookup if self._routed else _unowned,
                on_applied=self._applied_callback(index) if self._routed else _unrouted,
                forward=self._forward,
                on_trace=on_trace,
                start=start_workers,
            )
            for index in range(config.shards)
        ]
        for index in range(config.shards):
            self.metrics.set_queue_depth(index, 0, config.ingest_queue_limit)

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        tpiin: TPIIN,
        config: ServiceConfig,
        *,
        start_workers: bool = True,
    ) -> "ShardedDetectionService":
        """Load (or initialize) durable state and return a ready service.

        Recovery merges the per-shard WALs by global sequence and
        replays each record onto the shard whose log held it, below a
        per-shard snapshot floor.  On first boot (no snapshot, empty
        WALs) the TPIIN's own trading arcs seed the stream, placed by a
        *baseline-only* union pass so the placement is re-derivable on
        any later restart.  A crash mid-migration can leave an arc on
        two shards; the final dedupe pass keeps the home copy (else the
        lowest shard index) and logs a durable remove against the
        loser's WAL so the duplicate cannot resurface later.

        A directory written at another shard count is refused with
        :class:`ServiceError`; legacy single-file state is upgraded into
        shard 0 first (see :func:`_prepare_state_dir`).
        """
        _prepare_state_dir(config)
        n = config.shards
        tracer = Tracer()
        with tracer.span("recovery") as recovery_span:
            view = tpiin.antecedent_view()
            with tracer.span("build_detector") as span:
                # Shard 0 builds the antecedent indexes (bitsets, frozen
                # CSR, component map); the others share them by
                # reference and only stream independently.
                base = IncrementalDetector(
                    view,
                    collect_groups=config.collect_groups,
                    max_cached_roots=config.max_cached_roots,
                    tracer=tracer,
                    ingest_baseline=False,
                )
                detectors = [base]
                for _ in range(1, n):
                    detectors.append(
                        IncrementalDetector(
                            view,
                            collect_groups=config.collect_groups,
                            max_cached_roots=config.max_cached_roots,
                            ingest_baseline=False,
                            share_antecedent_from=base,
                        )
                    )
                span.set(components=base.component_count, shards=n)

            snapshots = [read_snapshot(config.shard_snapshot_path(i)) for i in range(n)]
            wals: list[WriteAheadLog] = []
            replays = []
            for i in range(n):
                wal, replay = WriteAheadLog.open(
                    config.shard_wal_path(i), fsync=config.fsync
                )
                wals.append(wal)
                replays.append(replay)

            union = _UnionFind(base.component_count)
            replayed, seeded = cls._recover_state(
                tpiin, base, detectors, snapshots, replays, union, n, tracer
            )
            ownership, drops = (
                cls._rebuild_ownership(base, detectors, union, n) if n > 1 else ({}, [])
            )
            floors = [s.last_seq if s is not None else 0 for s in snapshots]
            next_seq = max([w.last_seq for w in wals] + floors) + 1
            if drops:
                # Make the dedupe durable: without a logged remove, the
                # loser's WAL still says "present", and a later user
                # remove (logged only on the owner) would resurrect the
                # arc on the restart after next.
                touched = set()
                for shard_index, (seller, buyer) in drops:
                    wals[shard_index].append(
                        OP_REMOVE, seller, buyer, seq=next_seq, sync=False
                    )
                    next_seq += 1
                    touched.add(shard_index)
                for shard_index in sorted(touched):
                    wals[shard_index].sync()
            recovery_span.set(
                from_snapshot=any(s is not None for s in snapshots),
                replayed=replayed,
                seeded=seeded,
                shards=n,
            )
            recovery_record = recovery_span.record

        return cls(
            tpiin,
            view,
            detectors,
            wals,
            config,
            union=union,
            ownership=ownership,
            next_seq_start=next_seq,
            recovered_records=replayed,
            recovered_from_snapshot=any(s is not None for s in snapshots),
            healed_torn_tail=any(r.torn_tail for r in replays),
            recovery_trace=(
                recovery_record.to_dict() if recovery_record is not None else None
            ),
            start_workers=start_workers,
        )

    @classmethod
    def _recover_state(
        cls,
        tpiin: TPIIN,
        base: IncrementalDetector,
        detectors: list[IncrementalDetector],
        snapshots: list[Snapshot | None],
        replays: list[ReplayResult],
        union: _UnionFind,
        n: int,
        tracer: Tracer,
    ) -> tuple[int, int]:
        """Seed the shard detectors and replay the merged WALs."""
        seeded = 0
        with tracer.span("seed") as span:
            for i in range(n):
                snapshot = snapshots[i]
                if snapshot is None:
                    continue
                for seller, buyer in snapshot.arcs:
                    cls._recover_apply(
                        detectors[i], OP_ADD, seller, buyer, source="snapshot"
                    )
                    union.union(
                        base.component_of(seller), base.component_of(buyer)
                    )
                    seeded += 1
            if any(s is None for s in snapshots):
                # Shards without a snapshot re-derive their baseline
                # share.  Placement uses a union pass over the baseline
                # arcs alone — never the WAL's merges — so the same
                # arcs land on the same shards on every restart.
                baseline = [
                    (str(s), str(b)) for s, b in tpiin.trading_arcs()
                ] + [(str(s), str(b)) for s, b in tpiin.intra_scs_trades]
                placement = _UnionFind(base.component_count)
                for seller, buyer in baseline:
                    placement.union(
                        base.component_of(seller), base.component_of(buyer)
                    )
                for seller, buyer in baseline:
                    home = _home_of(
                        placement.min_of(base.component_of(seller)), n
                    )
                    if snapshots[home] is not None:
                        # This shard compacted: its snapshot already
                        # accounts for the baseline share it kept.
                        continue
                    cls._recover_apply(
                        detectors[home], OP_ADD, seller, buyer, source="baseline"
                    )
                    union.union(
                        base.component_of(seller), base.component_of(buyer)
                    )
                    seeded += 1
            span.set(arcs=seeded)

        floors = [s.last_seq if s is not None else 0 for s in snapshots]
        merged: list[tuple[WALRecord, int]] = sorted(
            ((record, i) for i in range(n) for record in replays[i].records),
            key=lambda pair: pair[0].seq,
        )
        replayed = 0
        with tracer.span("wal_replay") as span:
            for record, i in merged:
                if record.seq <= floors[i]:
                    # Stale record from a crash between snapshot write
                    # and WAL truncation; the snapshot has it already.
                    continue
                cls._recover_apply(
                    detectors[i], record.op, record.seller, record.buyer, source="WAL"
                )
                if record.op == OP_ADD:
                    union.union(
                        base.component_of(record.seller),
                        base.component_of(record.buyer),
                    )
                replayed += 1
            span.set(replayed=replayed)
        return replayed, seeded

    @staticmethod
    def _rebuild_ownership(
        base: IncrementalDetector,
        detectors: list[IncrementalDetector],
        union: _UnionFind,
        n: int,
    ) -> tuple[dict[tuple[str, str], int], list[tuple[int, tuple[str, str]]]]:
        """Physical placement -> ownership map, deduping crash leftovers.

        A crash between a migration's destination sync and source sync
        leaves an arc on both shards.  The copy at the cluster's home
        wins (else the lowest shard index); the loser is dropped from
        memory here and reported back so the caller can log a durable
        remove against its WAL (else the stale add would resurrect the
        arc on a later restart).
        """
        placements: dict[tuple[str, str], list[int]] = {}
        for i in range(n):
            for seller, buyer in detectors[i].trading_arcs():
                placements.setdefault((str(seller), str(buyer)), []).append(i)
        ownership: dict[tuple[str, str], int] = {}
        drops: list[tuple[int, tuple[str, str]]] = []
        for key, owners in placements.items():
            if len(owners) == 1:
                ownership[key] = owners[0]
                continue
            home = _home_of(union.min_of(base.component_of(key[0])), n)
            keep = home if home in owners else min(owners)
            for i in owners:
                if i != keep:
                    detectors[i].remove_trading_arc(*key)
                    drops.append((i, key))
            ownership[key] = keep
        return ownership, drops

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

    # ------------------------------------------------------------------
    # routing plumbing (callbacks handed to the shard workers)
    # ------------------------------------------------------------------
    def _allocate_seq(self) -> int:
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
            return seq

    def _owner_lookup(self, key: tuple[str, str]) -> int | None:
        with self._route_lock.read():
            return self._ownership.get(key)

    def _applied_callback(self, shard: int) -> Callable[[str, str, str], None]:
        def on_applied(op: str, seller: str, buyer: str) -> None:
            self._note_applied(op, seller, buyer, shard)

        return on_applied

    def _note_applied(self, op: str, seller: str, buyer: str, shard: int) -> None:
        """Ownership/union bookkeeping, inside the shard's critical section.

        Updating ownership only while the owning shard's lock is held is
        what prevents a stale router thread from overwriting a newer
        placement.  During a migration the destination's add runs before
        the source's remove, so the source may only *clear* an entry it
        still owns.
        """
        key = (seller, buyer)
        if op == OP_ADD:
            try:
                c1 = self._detectors[0].component_of(seller)
                c2 = self._detectors[0].component_of(buyer)
            except MiningError:  # pragma: no cover - applied arcs resolve
                c1 = c2 = -1
            with self._route_lock.write():
                self._ownership[key] = shard
                if c1 >= 0 and c1 != c2:
                    self._union.union(c1, c2)
        else:
            with self._route_lock.write():
                if self._ownership.get(key) == shard:
                    del self._ownership[key]

    def _forward(self, entry: PendingMutation) -> None:
        """Re-enqueue a mutation whose arc a merge rehomed after routing."""
        key = (entry.seller, entry.buyer)
        with self._route_lock.read():
            owner = self._ownership.get(key)
        target = owner if owner is not None else self._home_shard_for(entry.seller)
        self._shards[target].enqueue(entry)

    def _record_trace(
        self, components: tuple[int, ...], payload: dict[str, object]
    ) -> None:
        with self._trace_lock:
            self._recent_traces.append((components, payload))

    def _home_rlocked(self, root: int) -> int:
        return _home_of(self._union.min_of(root), self._config.shards)

    def _home_shard_for(self, node: str) -> int:
        if not self._routed:
            return 0
        try:
            component = self._detectors[0].component_of(node)
        except MiningError:
            return 0
        with self._route_lock.read():
            return self._home_rlocked(self._union.find(component))

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Add a trading arc; returns the verdict with proof-chain groups."""
        return self._dispatch(OP_ADD, str(seller), str(buyer))

    def remove_arc(self, seller: str, buyer: str) -> ArcUpdate:
        """Retract a trading arc (e.g. a corrected filing)."""
        return self._dispatch(OP_REMOVE, str(seller), str(buyer))

    def _dispatch(self, op: str, seller: str, buyer: str) -> ArcUpdate:
        self._ensure_open()
        plan = self._plan(op, (seller, buyer))
        if plan.kind == "enqueue":
            return self._shards[plan.shard].submit(op, seller, buyer).wait()
        # Cross-shard merge: run as a coordinator job on the source
        # shard's queue so it executes at its FIFO position there.
        job = self._shards[plan.src].submit_job(
            lambda: self._run_merge(seller, buyer)
        )
        return job.wait()

    def _plan(self, op: str, key: tuple[str, str]) -> _Plan:
        """Route one mutation: to its owner, its home, or into a merge."""
        if not self._routed:
            return _Plan("enqueue", shard=0)
        seller, buyer = key
        try:
            c1 = self._detectors[0].component_of(seller)
            c2 = self._detectors[0].component_of(buyer)
        except MiningError:
            # Unknown endpoint: no shard can own the arc; let shard 0's
            # detector produce the error verdict (a 400).
            return _Plan("enqueue", shard=0)
        with self._route_lock.read():
            owner = self._ownership.get(key)
            if owner is not None:
                return _Plan("enqueue", shard=owner)
            r1, r2 = self._union.find(c1), self._union.find(c2)
            h1, h2 = self._home_rlocked(r1), self._home_rlocked(r2)
            if op != OP_ADD or r1 == r2 or h1 == h2:
                return _Plan("enqueue", shard=h1)
            # The new arc bridges clusters homed on different shards:
            # rehome the cluster whose min loses onto the merged home.
            if self._union.min_of(r1) <= self._union.min_of(r2):
                return _Plan("merge", src=h2, dst=h1, src_root=r2)
            return _Plan("merge", src=h1, dst=h2, src_root=r1)

    def _run_merge(self, seller: str, buyer: str) -> ArcUpdate:
        """Coordinate a cross-shard merge (caller holds no locks).

        Serialized by the merge mutex, then re-planned from scratch:
        between routing and execution another merge (or a concurrent
        duplicate add) may have changed the picture, in which case this
        degenerates to a plain locked apply at the current owner/home.
        """
        with self._merge_mutex:
            key = (seller, buyer)
            with self._route_lock.read():
                owner = self._ownership.get(key)
            if owner is not None:
                return self._apply_on(owner, seller, buyer)
            plan = self._plan(OP_ADD, key)
            if plan.kind == "enqueue":
                return self._apply_on(plan.shard, seller, buyer)
            lo, hi = sorted((plan.src, plan.dst))
            with self._shards[lo].lock.write():
                with self._shards[hi].lock.write():
                    return self._merge_under_shard_locks(
                        plan.src, plan.dst, plan.src_root, seller, buyer
                    )

    def _apply_on(self, shard_index: int, seller: str, buyer: str) -> ArcUpdate:
        """Directly apply one add under a single shard's write lock."""
        shard = self._shards[shard_index]
        with shard.lock.write():
            shard.ensure_healthy()
            update = shard.add_arc_locked(seller, buyer)
            if update.applied:
                shard.sync_wal_locked()
            shard.maybe_compact_locked()
        return update

    def _merge_under_shard_locks(
        self, src_i: int, dst_i: int, src_root: int, seller: str, buyer: str
    ) -> ArcUpdate:
        """Rehome the source cluster, then apply the triggering arc.

        Caller holds both shards' write locks (acquired in index order)
        and the merge mutex.  Durability order: destination adds sync
        before source removes — a crash in between duplicates arcs
        (recovery dedupes), it never loses an acknowledged one.  A
        poisoned shard on either side refuses the merge; a failed
        append or sync poisons the shard it hit (ServiceError, a 503).
        """
        src, dst = self._shards[src_i], self._shards[dst_i]
        src.ensure_healthy()
        dst.ensure_healthy()
        with self._route_lock.read():
            moving = [
                arc
                for arc in src.trading_arcs_locked()
                if self._union.find(self._detectors[0].component_of(arc[0]))
                == src_root
            ]
        for s, b in moving:
            dst.add_arc_locked(s, b)
        if moving:
            dst.sync_wal_locked()
        for s, b in moving:
            src.remove_arc_locked(s, b)
        if moving:
            src.sync_wal_locked()
        update = dst.add_arc_locked(seller, buyer)
        if update.applied:
            dst.sync_wal_locked()
        src.maybe_compact_locked()
        dst.maybe_compact_locked()
        if moving:
            self.metrics.count_migration(len(moving))
        return update

    # ------------------------------------------------------------------
    # NDJSON batch ingest
    # ------------------------------------------------------------------
    def apply_batch(self, lines: Sequence[ArcLine]) -> list[dict[str, object]]:
        """Apply parsed NDJSON lines; one report entry per line, in order.

        Lines are routed in a single sequential pass with a batch-local
        overlay (two lines naming the same arc always land on the same
        shard, preserving their relative order), buffered per shard,
        and flushed in parallel — one write-lock hold and one fsync per
        ``group_commit_max`` chunk.  A line that triggers a cross-shard
        merge first flushes every buffer, then merges inline.
        """
        self._ensure_open()
        report: dict[int, dict[str, object]] = {}
        buffers: dict[int, list[ArcLine]] = {i: [] for i in range(len(self._shards))}
        overlay: dict[tuple[str, str], int] = {}
        for line in lines:
            key = (line.seller, line.buyer)
            target = overlay.get(key)
            if target is None:
                plan = self._plan(line.op, key)
                if plan.kind == "merge":
                    self._flush_buffers(buffers, report, overlay)
                    try:
                        update = self._run_merge(line.seller, line.buyer)
                    except (MiningError, ServiceError) as exc:
                        report[line.index] = {"error": str(exc)}
                        continue
                    report[line.index] = _line_report(line.op, update)
                    with self._route_lock.read():
                        resolved = self._ownership.get(key)
                    if resolved is not None:
                        overlay[key] = resolved
                    continue
                target = plan.shard
                overlay[key] = target
            buffers[target].append(line)
        self._flush_buffers(buffers, report, overlay)
        return [
            {"line": index, **report[index]} for index in sorted(report)
        ]

    def _flush_buffers(
        self,
        buffers: dict[int, list[ArcLine]],
        report: dict[int, dict[str, object]],
        overlay: dict[tuple[str, str], int],
    ) -> None:
        live = {i: buf for i, buf in buffers.items() if buf}
        if not live:
            return
        collected: dict[int, list[tuple[int, dict[str, object]]]] = {
            i: [] for i in live
        }

        def flush_one(index: int, lines: list[ArcLine]) -> None:
            out = collected[index]
            for chunk in _chunks(lines, self._config.group_commit_max):
                ops = [(line.op, line.seller, line.buyer) for line in chunk]
                try:
                    outcomes = self._shards[index].apply_chunk(ops)
                except ServiceError as exc:
                    for line in chunk:
                        out.append((line.index, {"error": str(exc)}))
                    continue
                for line, outcome in zip(chunk, outcomes):
                    if outcome is None:
                        # A concurrent merge rehomed the arc between
                        # routing and flush: retry through the router.
                        try:
                            outcome = self._dispatch(
                                line.op, line.seller, line.buyer
                            )
                        except (MiningError, ServiceError) as exc:
                            out.append((line.index, {"error": str(exc)}))
                            continue
                    if isinstance(outcome, BaseException):
                        out.append((line.index, {"error": str(outcome)}))
                    else:
                        out.append((line.index, _line_report(line.op, outcome)))

        if len(live) == 1:
            ((index, lines),) = live.items()
            flush_one(index, lines)
        else:
            threads = [
                threading.Thread(
                    target=flush_one,
                    args=(index, lines),
                    name=f"repro-batch-flush-{index}",
                )
                for index, lines in live.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for out in collected.values():
            for index, entry in out:
                report[index] = entry
        for i in live:
            buffers[i] = []
        overlay.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def arc_status(self, seller: str, buyer: str) -> ArcStatus:
        seller, buyer = str(seller), str(buyer)
        with self._route_lock.read():
            owner = self._ownership.get((seller, buyer))
        target = owner if owner is not None else self._home_shard_for(seller)
        present, suspicious, groups = self._shards[target].arc_view(seller, buyer)
        return ArcStatus(
            seller, buyer, present=present, suspicious=suspicious, groups=groups
        )

    def result(self) -> DetectionResult:
        """Aggregate result, equal to a batch run over the live arc set.

        Reads every shard under a simultaneous read-lock hold (acquired
        in index order, the same order merges use), so the merged
        result is a consistent cut even mid-migration.
        """
        parts = self._consistent_view(lambda shard: shard.result_rlocked())
        return _merge_results(parts, self._detectors[0].component_count)

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
        per_shard = self._consistent_view(
            lambda shard: shard.trading_arcs_rlocked()
        )
        snapshot = self._tpiin.antecedent_view()
        for arcs in per_shard:
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
        return sum(self._consistent_view(lambda shard: shard.arc_count_rlocked()))

    def health(self) -> dict[str, object]:
        """Liveness summary; ``status`` is ``"ok"`` only when serving.

        A shard poisoned by a commit failure turns the status to
        ``"failed"`` and is listed with its error.
        """
        with self._route_lock.read():
            closed = self._closed
        seqs = self._consistent_view(lambda shard: shard.wal_last_seq_rlocked())
        arcs = self._consistent_view(lambda shard: shard.arc_count_rlocked())
        failed = [
            {"shard": shard.index, "error": str(error)}
            for shard in self._shards
            if (error := shard.failure()) is not None
        ]
        return {
            "status": "closed" if closed else "failed" if failed else "ok",
            "failed_shards": failed,
            "arcs": sum(arcs),
            "wal_seq": max(seqs) if seqs else 0,
            "shards": len(self._shards),
            "uptime_seconds": self.metrics.uptime_seconds,
            "recovered_records": self.recovered_records,
            "recovered_from_snapshot": self.recovered_from_snapshot,
            "healed_torn_tail": self.healed_torn_tail,
        }

    def metrics_payload(self) -> dict[str, object]:
        payload = self.metrics.to_dict()
        stats = self._consistent_view(
            lambda shard: (
                shard.path_cache_stats_rlocked(),
                shard.arc_count_rlocked(),
                shard.wal_last_seq_rlocked(),
            )
        )
        caches = [s for s, _, _ in stats]
        payload["path_cache"] = {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "evictions": sum(c.evictions for c in caches),
            "size": sum(c.size for c in caches),
            "capacity": self._config.max_cached_roots,
            "hit_rate": (
                sum(c.hits for c in caches)
                / max(1, sum(c.hits + c.misses for c in caches))
            ),
        }
        payload["arcs_tracked"] = sum(count for _, count, _ in stats)
        payload["wal_seq"] = max((seq for _, _, seq in stats), default=0)
        payload["shards"] = [
            {
                "shard": i,
                "arcs": stats[i][1],
                "wal_seq": stats[i][2],
                "queue_depth": self._shards[i].queue_depth(),
            }
            for i in range(len(self._shards))
        ]
        return payload

    def trace_payload(self, subtpiin: int) -> dict[str, object]:
        """Recent mutation span trees touching one subTPIIN, newest last."""
        count = self._detectors[0].component_count
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

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def queue_depths(self) -> list[int]:
        return [shard.queue_depth() for shard in self._shards]

    def _consistent_view(
        self, per_shard: Callable[[ShardWorker], _T]
    ) -> list[_T]:
        """Evaluate ``per_shard`` on every worker under one global cut.

        Read locks are acquired in index order — the same order merge
        jobs acquire write locks — so this can never deadlock against a
        migration, and no arc is double-counted mid-move.
        """
        for shard in self._shards:
            shard.lock.acquire_read()
        try:
            return [per_shard(shard) for shard in self._shards]
        finally:
            for shard in reversed(self._shards):
                shard.lock.release_read()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def compact(self) -> list[Snapshot]:
        """Force a snapshot + WAL truncation on every shard."""
        self._ensure_open()
        return [shard.compact() for shard in self._shards]

    def close(self) -> None:
        """Drain every shard queue, then flush and release the WALs."""
        with self._route_lock.write():
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.stop()
        for shard in self._shards:
            shard.close()

    def _ensure_open(self) -> None:
        with self._route_lock.read():
            closed = self._closed
        if closed:
            raise ServiceError("the detection service is closed")

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _unowned(key: tuple[str, str]) -> None:
    return None


def _unrouted(op: str, seller: str, buyer: str) -> None:
    return None


def _line_report(op: str, update: ArcUpdate) -> dict[str, object]:
    seller, buyer = update.arc
    return {
        "op": op,
        "arc": [str(seller), str(buyer)],
        "applied": update.applied,
        "suspicious": update.suspicious,
        "group_count": update.group_count,
    }


def _merge_results(
    parts: list[DetectionResult], component_count: int
) -> DetectionResult:
    """Combine per-shard results into one batch-equivalent result.

    Sound because shards partition the arc set: groups concatenate,
    tallies add, and the count overrides merge only when *every* shard
    ran count-only (mixed modes fall back to materialized groups).
    """
    groups: list[object] = []
    for part in parts:
        groups.extend(part.groups)
    count_only = all(part.simple_count_override is not None for part in parts)
    simple = complex_ = None
    kinds = None
    suspicious = None
    if count_only:
        simple = sum(part.simple_count_override or 0 for part in parts)
        complex_ = sum(part.complex_count_override or 0 for part in parts)
        kinds = Counter()
        for part in parts:
            kinds.update(part.kind_counts_override or {})
        suspicious = set()
        for part in parts:
            suspicious |= part.suspicious_arcs_override or set()
    return DetectionResult(
        groups=groups,  # type: ignore[arg-type]
        total_trading_arcs=sum(part.total_trading_arcs for part in parts),
        cross_component_trades=sum(part.cross_component_trades for part in parts),
        subtpiin_count=component_count,
        engine="incremental",
        simple_count_override=simple,
        complex_count_override=complex_,
        kind_counts_override=kinds,
        suspicious_arcs_override=suspicious,
    )
