"""Property: sharded crash + replay always lands on the batch result.

The sharded service journals every applied mutation to the WAL of the
shard that executed it, stamped with a *global* sequence number.  The
durability contract: after any crash (including bytes torn off any
shard's WAL tail, and including a crash between a migration's
destination sync and source sync), recovery must reconstruct exactly
the graph described by per-shard replay of the surviving records —
snapshot arcs plus intact WAL records above the shard's snapshot
floor, applied in global-sequence order, with cross-shard migration
duplicates collapsing in the union.

That target is itself checked against a batch ``detect(engine="faithful")``
over the surviving arc union, so the property pins both layers: the
recovery plumbing and the detection result it feeds.

The dataset is a forest of disjoint Fig. 6-style components (Fig. 8
itself is a single weak component, which would pin every mutation to
one shard and leave the other WALs empty); cross-copy adds force real
cross-shard merges, so chopping any shard's WAL is meaningful.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.snapshot import read_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog, read_wal

COPIES = 5


def _forest_tpiin() -> TPIIN:
    """``COPIES`` disjoint components: P{i} -> A{i}/D{i}, A{i} -> B{i}.

    No baseline trading arcs, so the durability spec below needs no
    baseline-share placement logic.
    """
    persons, companies, influence = [], [], []
    for i in range(COPIES):
        persons.append(f"P{i}")
        companies += [f"A{i}", f"B{i}", f"D{i}"]
        influence += [(f"P{i}", f"A{i}"), (f"P{i}", f"D{i}"), (f"A{i}", f"B{i}")]
    return TPIIN.build(
        persons=persons, companies=companies, influence=influence, trading=[]
    )


FOREST = _forest_tpiin()
COMPANIES = sorted(
    node for node in FOREST.graph.nodes() if not node.startswith("P")
)
PAIRS = [(s, b) for s in COMPANIES for b in COMPANIES if s != b]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([OP_ADD, OP_REMOVE]), st.integers(0, len(PAIRS) - 1)
    ),
    max_size=25,
)


def batch_over(arcs):
    """Batch faithful-engine detect over the forest's antecedents + ``arcs``."""
    graph = FOREST.antecedent_graph()
    for seller, buyer in arcs:
        graph.add_arc(seller, buyer, EColor.TRADING)
    return detect(TPIIN(graph=graph), engine="faithful")


def surviving_arcs(config):
    """The arc union the sharded durability contract promises.

    Independent of the recovery implementation: per-shard state =
    snapshot arcs above nothing, plus the shard's intact WAL records
    above its snapshot floor, replayed across shards in global-sequence
    order; the surviving set is the union over shards.
    """
    n = config.shards
    shard_arcs: list[set] = []
    floors = []
    for i in range(n):
        snapshot = read_snapshot(config.shard_snapshot_path(i))
        shard_arcs.append(set(snapshot.arcs) if snapshot is not None else set())
        floors.append(snapshot.last_seq if snapshot is not None else 0)
    merged = sorted(
        (
            (record, i)
            for i in range(n)
            for record in read_wal(config.shard_wal_path(i)).records
            if record.seq > floors[i]
        ),
        key=lambda pair: pair[0].seq,
    )
    for record, i in merged:
        if record.op == OP_ADD:
            shard_arcs[i].add((record.seller, record.buyer))
        else:
            shard_arcs[i].discard((record.seller, record.buyer))
    return set().union(*shard_arcs)


@settings(deadline=None, max_examples=30)
@given(
    ops=ops_strategy,
    shards=st.integers(min_value=2, max_value=4),
    snapshot_every=st.integers(min_value=1, max_value=8),
    chop=st.integers(min_value=0, max_value=80),
    chop_shard=st.integers(min_value=0, max_value=3),
)
def test_chop_and_replay_equals_batch(ops, shards, snapshot_every, chop, chop_shard):
    # tmp dir managed inside the body: hypothesis re-runs the function
    # many times per test item, so function-scoped fixtures are unsafe.
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            state_dir=Path(tmp),
            shards=shards,
            snapshot_every=snapshot_every,
            fsync=False,  # tmpfs durability is irrelevant to the property
        )
        service = ShardedDetectionService.open(FOREST, config)
        for op, index in ops:
            seller, buyer = PAIRS[index]
            if op == OP_ADD:
                service.add_arc(seller, buyer)
            else:
                service.remove_arc(seller, buyer)
        # Crash: release the handles without orderly shutdown work,
        # then tear bytes off one shard's WAL tail.
        service.close()
        wal_path = config.shard_wal_path(chop_shard % shards)
        if chop and wal_path.exists():
            raw = wal_path.read_bytes()
            wal_path.write_bytes(raw[: max(0, len(raw) - chop)])

        expected_arcs = surviving_arcs(config)
        recovered = ShardedDetectionService.open(FOREST, config)
        try:
            result = recovered.result()
            batch = batch_over(sorted(expected_arcs))
            assert recovered.arc_count() == len(expected_arcs)
            assert {g.key() for g in result.groups} == {
                g.key() for g in batch.groups
            }
            assert (
                result.suspicious_trading_arcs == batch.suspicious_trading_arcs
            )
        finally:
            recovered.close()


@settings(deadline=None, max_examples=12)
@given(
    ops=ops_strategy,
    shards=st.integers(min_value=2, max_value=4),
    snapshot_every=st.integers(min_value=1, max_value=4),
)
def test_double_restart_is_stable(ops, shards, snapshot_every):
    """Recovering twice (no new damage) must be a fixed point."""
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            state_dir=Path(tmp),
            shards=shards,
            snapshot_every=snapshot_every,
            fsync=False,
        )
        service = ShardedDetectionService.open(FOREST, config)
        for op, index in ops:
            seller, buyer = PAIRS[index]
            if op == OP_ADD:
                service.add_arc(seller, buyer)
            else:
                service.remove_arc(seller, buyer)
        first = service.result()
        count = service.arc_count()
        service.close()
        for _ in range(2):
            recovered = ShardedDetectionService.open(FOREST, config)
            try:
                again = recovered.result()
                assert recovered.arc_count() == count
                assert {g.key() for g in again.groups} == {
                    g.key() for g in first.groups
                }
            finally:
                recovered.close()


def test_mid_merge_crash_duplicate_is_healed(tmp_path):
    """A crash between destination sync and source sync duplicates the
    migrating arc across two WALs; recovery must keep exactly one copy
    AND log a durable remove so a later user remove cannot resurrect
    the stale duplicate on the restart after next."""
    config = ServiceConfig(state_dir=tmp_path, shards=2, fsync=False)
    # Forge the crash state by hand: shard 0 added the arc (seq 1) and
    # a migration re-added it on shard 1 (seq 2), but the crash hit
    # before shard 0 logged its removal.
    config.ensure_state_dir()
    wal0, _ = WriteAheadLog.open(config.shard_wal_path(0), fsync=False)
    wal0.append(OP_ADD, "B0", "D1", seq=1)
    wal0.close()
    wal1, _ = WriteAheadLog.open(config.shard_wal_path(1), fsync=False)
    wal1.append(OP_ADD, "B0", "D1", seq=2)
    wal1.close()

    recovered = ShardedDetectionService.open(FOREST, config)
    try:
        assert recovered.arc_status("B0", "D1").present
        assert recovered.arc_count() == 1
        # The user retracts the arc; it must stay gone across restarts.
        assert recovered.remove_arc("B0", "D1").applied
    finally:
        recovered.close()

    for _ in range(2):
        again = ShardedDetectionService.open(FOREST, config)
        try:
            assert not again.arc_status("B0", "D1").present
            assert again.arc_count() == 0
        finally:
            again.close()
