"""The queued daemon: parity with the references, batches, backpressure.

Every update's verdict must match a bare streaming detector, and the
final result the faithful batch engine over the final arc set — also
when the state directory was first written by the N-shard daemon of
earlier releases and folded into one at open.  On top: per-line batch
verdicts, deterministic 429 shedding, and a drain-on-close that never
drops an acknowledged write.
"""

import time

import pytest

from repro.datagen.cases import fig8_tpiin
from repro.errors import BackpressureError, MiningError
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
    component, so cross-component adds need this fixture.
    """
    persons, companies, influence = [], [], []
    for i in range(copies):
        persons.append(f"P{i}")
        companies += [f"A{i}", f"B{i}", f"D{i}"]
        influence += [(f"P{i}", f"A{i}"), (f"P{i}", f"D{i}"), (f"A{i}", f"B{i}")]
    return TPIIN.build(
        persons=persons, companies=companies, influence=influence, trading=[]
    )

# A workload over Fig. 8: adds, duplicate adds, removals and re-adds.
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


def open_fresh(tpiin, path, shards):
    """Open a daemon on a state directory as a ``shards``-shard daemon's
    first boot left it: one empty WAL per shard, folded at open."""
    path.mkdir(parents=True, exist_ok=True)
    for index in range(shards):
        (path / f"wal-{index:04d}.jsonl").touch()
    service = ShardedDetectionService.open(
        tpiin, ServiceConfig(state_dir=path, fsync=False)
    )
    assert {p.name for p in path.iterdir()} <= {"wal-0000.jsonl", "snapshot-0000.json"}
    return service


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
        with open_fresh(FIG8, tmp_path, shards) as service:
            self.check(service, FIG8, OPS)

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
        with open_fresh(tpiin, tmp_path, shards) as service:
            self.check(service, tpiin, ops)


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
            FIG8, ServiceConfig(state_dir=tmp_path, fsync=False)
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
            FIG8, ServiceConfig(state_dir=tmp_path / "a", fsync=False)
        ) as batched:
            batched.apply_batch(lines)
            with ShardedDetectionService.open(
                FIG8, ServiceConfig(state_dir=tmp_path / "b", fsync=False)
            ) as sequential:
                run_ops(sequential)
                assert result_key(batched.result()) == result_key(
                    sequential.result()
                )


class TestBackpressure:
    def test_saturated_queue_sheds_with_retry_after(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path, fsync=False, ingest_queue_limit=3)
        with ShardedDetectionService.open(FIG8, config) as service:
            pending = []
            with service._lock.write():
                # Park the commit thread on the write lock: submit one
                # entry and wait for the thread to take it (it then
                # blocks in its commit path until we release).
                pending.append(service._enqueue("add", "C1", "C6"))
                deadline = time.monotonic() + 5.0
                while service._queue:
                    assert time.monotonic() < deadline, "commit thread never took entry"
                    time.sleep(0.001)
                # Now fill the queue exactly to its bound.
                for _ in range(config.ingest_queue_limit):
                    pending.append(service._enqueue("add", "C1", "C6"))
                with pytest.raises(BackpressureError) as excinfo:
                    service._enqueue("add", "C1", "C6")
                assert excinfo.value.retry_after == config.retry_after_seconds
                shed = service.metrics._registry.counter("repro_ingest_shed_total").value
                assert shed == 1
            # Released: everything acknowledged eventually lands.
            updates = [entry.wait() for entry in pending]
            assert updates[0].applied is True
            assert all(not u.applied for u in updates[1:])

    def test_unknown_company_still_maps_to_400_class_error(self, tmp_path):
        with ShardedDetectionService.open(
            FIG8, ServiceConfig(state_dir=tmp_path, fsync=False)
        ) as service:
            with pytest.raises(MiningError):
                service.add_arc("NOPE", "C6")


class TestDrain:
    def test_close_flushes_queued_writes(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path, fsync=False)
        service = ShardedDetectionService.open(FIG8, config)
        with service._lock.write():
            pending = [
                service._enqueue("add", "C1", "C6"),
                service._enqueue("add", "C2", "C6"),
            ]
        service.close()
        # Acknowledged-at-submit writes are applied before the commit thread
        # exits; close never abandons them.
        assert all(entry.wait().applied for entry in pending)
        recovered = ShardedDetectionService.open(FIG8, config)
        try:
            assert recovered.arc_status("C1", "C6").present
            assert recovered.arc_status("C2", "C6").present
        finally:
            recovered.close()

    def test_context_manager_closes(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path, fsync=False)
        with ShardedDetectionService.open(FIG8, config) as service:
            service.add_arc("C1", "C6")
        with pytest.raises(Exception):
            service.add_arc("C2", "C6")
