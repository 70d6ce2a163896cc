"""Sharded service: parity with the references, routing, backpressure.

The sharding design leans on arc-decomposability (Definition 2): every
suspicious group is determined by its one trading arc plus the static
antecedent network, so partitioning dynamic arcs by weakly-connected
component can never change what is detected — only where the work runs.
These tests pin that equivalence plus the operational behaviors the
router adds on top: cross-shard merges, per-line batch verdicts,
deterministic 429 shedding, and a drain-on-close that never drops an
acknowledged write.
"""

import errno
import time

import pytest

from repro.datagen.cases import fig8_tpiin
from repro.errors import BackpressureError, MiningError, ServiceError
from repro.fusion.tpiin import TPIIN
from repro.io.registry_io import ArcLine, parse_arc_ndjson
from repro.mining.detector import detect
from repro.mining.incremental import IncrementalDetector
from repro.model.colors import EColor, VColor
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService

FIG8 = fig8_tpiin()
COMPANIES = sorted(
    node
    for node in FIG8.graph.nodes()
    if FIG8.graph.node_color(node) == VColor.COMPANY
)


def multi_component_tpiin(copies: int = 6) -> TPIIN:
    """``copies`` disjoint Fig. 6-style components.

    Copy ``i`` holds person ``P{i}`` influencing ``A{i}`` and ``D{i}``,
    with ``A{i}`` investing in ``B{i}``; a trading arc ``B{i} -> D{i}``
    is suspicious within the copy.  Fig. 8 itself is a single weak
    component, so cross-shard routing needs this fixture.
    """
    persons, companies, influence = [], [], []
    for i in range(copies):
        persons.append(f"P{i}")
        companies += [f"A{i}", f"B{i}", f"D{i}"]
        influence += [(f"P{i}", f"A{i}"), (f"P{i}", f"D{i}"), (f"A{i}", f"B{i}")]
    return TPIIN.build(
        persons=persons, companies=companies, influence=influence, trading=[]
    )

# A workload that exercises every routing path on Fig. 8: same-shard
# adds, cross-component adds (merges), duplicate adds, and removals.
OPS = [
    ("add", "C1", "C6"),
    ("add", "C6", "C2"),
    ("add", "C5", "C4"),
    ("add", "C1", "C6"),  # duplicate: applied=False, no WAL record
    ("remove", "C6", "C2"),
    ("add", "C2", "C6"),
    ("add", "C4", "C1"),
    ("remove", "C5", "C4"),
    ("remove", "C5", "C4"),  # absent: applied=False
    ("add", "C3", "C6"),
]


def final_arcs(tpiin, ops):
    """The baseline trading arcs with ``ops`` applied in order."""
    arcs = set(tpiin.trading_arcs()) | set(tpiin.intra_scs_trades)
    for op, seller, buyer in ops:
        if op == "add":
            arcs.add((seller, buyer))
        else:
            arcs.discard((seller, buyer))
    return arcs


def faithful_over(tpiin, arcs):
    """Batch faithful-engine detect over ``tpiin``'s antecedents + ``arcs``."""
    graph = tpiin.antecedent_graph()
    for seller, buyer in sorted(arcs):
        graph.add_arc(seller, buyer, EColor.TRADING)
    return detect(TPIIN(graph=graph), engine="faithful")


def run_ops(service, ops=OPS):
    updates = []
    for op, seller, buyer in ops:
        apply = service.add_arc if op == "add" else service.remove_arc
        updates.append((op, seller, buyer, apply(seller, buyer)))
    return updates


def result_key(result):
    return (
        {g.key() for g in result.groups},
        result.total_trading_arcs,
        result.suspicious_trading_arcs,
        result.kind_counts(),
    )


class TestParity:
    """Per-update verdicts match a bare streaming detector; final results
    match the faithful batch engine (the oracle) over the final arc set."""

    @staticmethod
    def check(service, tpiin, ops):
        reference = IncrementalDetector(tpiin)
        for op, seller, buyer, got in run_ops(service, ops):
            apply = (
                reference.add_trading_arc
                if op == "add"
                else reference.remove_trading_arc
            )
            want = apply(seller, buyer)
            assert got.applied == want.applied, (op, seller, buyer)
            assert got.suspicious == want.suspicious, (op, seller, buyer)
            assert {g.key() for g in got.groups} == {
                g.key() for g in want.groups
            }, (op, seller, buyer)
        arcs = final_arcs(tpiin, ops)
        assert service.arc_count() == len(arcs)
        assert result_key(service.result()) == result_key(faithful_over(tpiin, arcs))

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_references(self, tmp_path, shards):
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path, shards=shards, fsync=False)
        ) as service:
            self.check(service, FIG8, OPS)

    def test_arc_status_routes_to_owner(self, tmp_path):
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path, shards=4, fsync=False)
        ) as service:
            run_ops(service)
            baseline = service.arc_status("C3", "C5")
            assert baseline.present and baseline.suspicious
            added = service.arc_status("C1", "C6")
            assert added.present
            absent = service.arc_status("C6", "C2")
            assert not absent.present

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cross_component_parity(self, tmp_path, shards):
        """Merging workloads agree with both references too."""
        ops = [
            ("add", "B0", "D0"),  # suspicious inside copy 0
            ("add", "B1", "D1"),
            ("add", "B2", "D2"),
            ("add", "B0", "D1"),  # merges copies 0 and 1
            ("add", "B3", "A4"),  # merges copies 3 and 4
            ("remove", "B1", "D1"),
            ("add", "B4", "D5"),  # chains 3-4 onto 5
        ]
        tpiin = multi_component_tpiin()
        with ShardedDetectionService.open(
            tpiin, ServiceConfig(state_dir=tmp_path, shards=shards, fsync=False)
        ) as service:
            self.check(service, tpiin, ops)


class TestMerges:
    def _differently_homed_copies(self, service, copies=6):
        """Two copy indexes whose components home on different shards."""
        homes = {i: service._home_shard_for(f"B{i}") for i in range(copies)}
        for i in range(copies):
            for j in range(i + 1, copies):
                if homes[i] != homes[j]:
                    return i, j
        raise AssertionError("all copies homed identically")

    def test_cross_component_add_migrates_to_one_home(self, tmp_path):
        tpiin = multi_component_tpiin()
        with ShardedDetectionService.open(
            tpiin, ServiceConfig(state_dir=tmp_path, shards=4, fsync=False)
        ) as service:
            i, j = self._differently_homed_copies(service)
            service.add_arc(f"B{i}", f"D{i}")
            service.add_arc(f"B{j}", f"D{j}")
            before = service.metrics._own.counter(
                "repro_component_migrations_total"
            ).value
            service.add_arc(f"B{i}", f"D{j}")  # spans two homes
            after = service.metrics._own.counter(
                "repro_component_migrations_total"
            ).value
            assert after == before + 1
            # Every arc now lives on exactly one shard: the per-shard
            # arc lists partition the global arc set.
            shard_rows = service.metrics_payload()["shards"]
            assert sum(row["arcs"] for row in shard_rows) == service.arc_count()

    def test_merged_component_has_single_owner(self, tmp_path):
        tpiin = multi_component_tpiin()
        with ShardedDetectionService.open(
            tpiin, ServiceConfig(state_dir=tmp_path, shards=4, fsync=False)
        ) as service:
            i, j = self._differently_homed_copies(service)
            keys = [(f"B{i}", f"D{i}"), (f"B{j}", f"D{j}"), (f"B{i}", f"D{j}")]
            for seller, buyer in keys:
                service.add_arc(seller, buyer)
            owners = {key: service._owner_lookup(key) for key in keys}
            assert all(owner is not None for owner in owners.values())
            # The merged cluster's arcs are co-homed so future updates
            # take one shard lock.
            assert len(set(owners.values())) == 1


class TestMergeCommitFailure:
    """A WAL fault on the cross-shard merge path poisons the shard it hit,
    exactly like a failed group commit: a typed ServiceError (a 503), a
    failed health status, and no later write acknowledged on top."""

    @staticmethod
    def _bridge(service, copies=6):
        """A bridging add between differently homed copies, with its plan."""
        i, j = TestMerges()._differently_homed_copies(service, copies)
        service.add_arc(f"B{i}", f"D{i}")
        service.add_arc(f"B{j}", f"D{j}")
        key = (f"B{i}", f"D{j}")
        plan = service._plan("add", key)
        assert plan.kind == "merge"
        return key, plan

    @staticmethod
    def _fail_next_sync(monkeypatch, shard):
        wal = shard._wal
        real_sync = wal.sync
        calls = []

        def sync():
            calls.append(None)
            if len(calls) == 1:
                raise OSError(errno.EIO, "injected fsync failure")
            real_sync()

        monkeypatch.setattr(wal, "sync", sync)

    def test_merge_fsync_failure_poisons_the_merged_home(self, tmp_path, monkeypatch):
        tpiin = multi_component_tpiin()
        with ShardedDetectionService.open(
            tpiin, ServiceConfig(state_dir=tmp_path, shards=4, fsync=True)
        ) as service:
            key, plan = self._bridge(service)
            home = service._shards[plan.dst]
            self._fail_next_sync(monkeypatch, home)
            with pytest.raises(ServiceError, match="commit failed"):
                service.add_arc(*key)
            health = service.health()
            assert health["status"] == "failed"
            assert [row["shard"] for row in health["failed_shards"]] == [plan.dst]
            assert "injected fsync failure" in health["failed_shards"][0]["error"]
            # The home refuses every later write instead of acking it.
            homed = next(
                i for i in range(6) if service._home_shard_for(f"B{i}") == plan.dst
            )
            with pytest.raises(ServiceError):
                service.add_arc(f"D{homed}", f"A{homed}")
            # The batch path reports the refusal per line, never a 500.
            [line] = service.apply_batch(
                [ArcLine(index=0, op="add", seller=f"D{homed}", buyer=f"B{homed}")]
            )
            assert "error" in line

    def test_merge_into_a_poisoned_home_is_refused(self, tmp_path, monkeypatch):
        tpiin = multi_component_tpiin()
        with ShardedDetectionService.open(
            tpiin, ServiceConfig(state_dir=tmp_path, shards=4, fsync=True)
        ) as service:
            key, plan = self._bridge(service)
            home = service._shards[plan.dst]
            # Poison the merged home through an ordinary queued add.
            homed = next(
                i for i in range(6) if service._home_shard_for(f"B{i}") == plan.dst
            )
            self._fail_next_sync(monkeypatch, home)
            with pytest.raises(ServiceError):
                service.add_arc(f"D{homed}", f"A{homed}")
            source = service._shards[plan.src]
            before = source.arc_count()
            with pytest.raises(ServiceError, match=f"shard {plan.dst}"):
                service.add_arc(*key)
            # Nothing migrated, and the healthy source stays healthy.
            assert source.arc_count() == before
            assert source.failure() is None
            assert not service.arc_status(*key).present


class TestBatch:
    def test_per_line_verdicts(self, tmp_path):
        text = "\n".join(
            [
                '{"op": "add", "seller": "C1", "buyer": "C6"}',
                "not json at all",
                '{"op": "add", "seller": "C1", "buyer": "C6"}',
                '{"op": "add", "seller": "NOPE", "buyer": "C6"}',
                '{"op": "remove", "seller": "C1", "buyer": "C6"}',
            ]
        )
        lines, rejects = parse_arc_ndjson(text)
        assert [reject.index for reject in rejects] == [1]
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path, shards=2, fsync=False)
        ) as service:
            report = service.apply_batch(lines)
            by_line = {entry["line"]: entry for entry in report}
            assert by_line[0]["applied"] is True
            assert by_line[2]["applied"] is False  # duplicate add
            assert "error" in by_line[3]  # unknown company
            assert by_line[4]["applied"] is True
            assert service.arc_count() == len(list(FIG8.trading_arcs())) + len(
                list(FIG8.intra_scs_trades)
            )

    def test_batch_equals_sequential(self, tmp_path):
        lines = [
            ArcLine(index=i, op=op, seller=s, buyer=b)
            for i, (op, s, b) in enumerate(OPS)
        ]
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path / "a", shards=4, fsync=False)
        ) as batched:
            batched.apply_batch(lines)
            with ShardedDetectionService.open(
                FIG8, ServiceConfig(state_dir=tmp_path / "b", shards=4, fsync=False)
            ) as sequential:
                run_ops(sequential)
                assert result_key(batched.result()) == result_key(
                    sequential.result()
                )


class TestBackpressure:
    def test_saturated_queue_sheds_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            state_dir=tmp_path, shards=2, fsync=False, ingest_queue_limit=3
        )
        with ShardedDetectionService.open(FIG8, config) as service:
            target = service._home_shard_for("C1")
            worker = service._shards[target]
            pending = []
            with worker.lock.write():
                # Park the worker thread on the write lock: submit one
                # entry and wait for the worker to take it (it then
                # blocks in its commit path until we release).
                pending.append(worker.submit("add", "C1", "C6"))
                deadline = time.monotonic() + 5.0
                while worker.queue_depth() > 0:
                    assert time.monotonic() < deadline, "worker never took entry"
                    time.sleep(0.001)
                # Now fill the queue exactly to its bound.
                for _ in range(config.ingest_queue_limit):
                    pending.append(worker.submit("add", "C1", "C6"))
                with pytest.raises(BackpressureError) as excinfo:
                    worker.submit("add", "C1", "C6")
                assert excinfo.value.retry_after == config.retry_after_seconds
                shed = service.metrics._own.counter(
                    "repro_ingest_shed_total", shard=str(target)
                ).value
                assert shed == 1
            # Released: everything acknowledged eventually lands.
            updates = [entry.wait() for entry in pending]
            assert updates[0].applied is True
            assert all(not u.applied for u in updates[1:])

    def test_unknown_company_still_maps_to_400_class_error(self, tmp_path):
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path, shards=2, fsync=False)
        ) as service:
            with pytest.raises(MiningError):
                service.add_arc("NOPE", "C6")


class TestDrain:
    def test_close_flushes_queued_writes(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path, shards=2, fsync=False)
        service = ShardedDetectionService.open(FIG8, config)
        target = service._home_shard_for("C1")
        worker = service._shards[target]
        with worker.lock.write():
            pending = [
                worker.submit("add", "C1", "C6"),
                worker.submit("add", "C2", "C6"),
            ]
        service.close()
        # Acknowledged-at-submit writes are applied before the worker
        # exits; close never abandons them.
        assert all(entry.wait().applied for entry in pending)
        recovered = ShardedDetectionService.open(FIG8, config)
        try:
            assert recovered.arc_status("C1", "C6").present
            assert recovered.arc_status("C2", "C6").present
        finally:
            recovered.close()

    def test_context_manager_closes(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path, shards=2, fsync=False)
        with ShardedDetectionService.open(FIG8, config) as service:
            service.add_arc("C1", "C6")
        with pytest.raises(Exception):
            service.add_arc("C2", "C6")
