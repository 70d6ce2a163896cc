"""Property: crash + replay always lands on the batch result.

For any interleaving of adds/removes, any compaction cadence, and any
amount of bytes torn off the WAL tail by the crash, recovery must yield
a DetectionResult identical (up to group ordering) to a batch
``detect(engine="faithful")`` over the surviving arc set — where "surviving" is
defined by the durability contract: snapshot arcs (or the TPIIN
baseline) plus the WAL records that remain intact after the tear.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.cases import fig8_tpiin
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor, VColor
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.snapshot import read_snapshot
from repro.service.wal import OP_ADD, read_wal

FIG8 = fig8_tpiin()
COMPANIES = sorted(
    node
    for node in FIG8.graph.nodes()
    if FIG8.graph.node_color(node) == VColor.COMPANY
)
PAIRS = [(s, b) for s in COMPANIES for b in COMPANIES if s != b]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([OP_ADD, "remove"]), st.integers(0, len(PAIRS) - 1)
    ),
    max_size=25,
)


def batch_over(arcs):
    """Batch faithful-engine detect over Fig. 8's antecedent network + ``arcs``."""
    graph = FIG8.antecedent_graph()
    for seller, buyer in arcs:
        graph.add_arc(seller, buyer, EColor.TRADING)
    return detect(TPIIN(graph=graph), engine="faithful")


def surviving_arcs(config):
    """The arc set the durability contract promises after the crash."""
    snapshot = read_snapshot(config.shard_snapshot_path(0))
    if snapshot is not None:
        arcs = set(snapshot.arcs)
        floor = snapshot.last_seq
    else:
        arcs = set(FIG8.trading_arcs()) | set(FIG8.intra_scs_trades)
        floor = 0
    for record in read_wal(config.shard_wal_path(0)).records:
        if record.seq <= floor:
            continue
        if record.op == OP_ADD:
            arcs.add((record.seller, record.buyer))
        else:
            arcs.discard((record.seller, record.buyer))
    return arcs


@settings(deadline=None, max_examples=40)
@given(
    ops=ops_strategy,
    snapshot_every=st.integers(min_value=1, max_value=8),
    chop=st.integers(min_value=0, max_value=80),
)
def test_crash_replay_equals_batch(ops, snapshot_every, chop):
    # tmp dir managed inside the body: hypothesis re-runs the function
    # many times per test item, so function-scoped fixtures are unsafe.
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            state_dir=Path(tmp),
            snapshot_every=snapshot_every,
            fsync=False,  # tmpfs durability is irrelevant to the property
        )
        service = ShardedDetectionService.open(FIG8, config)
        for op, index in ops:
            seller, buyer = PAIRS[index]
            if op == OP_ADD:
                service.add_arc(seller, buyer)
            else:
                service.remove_arc(seller, buyer)
        # Crash: release the file handle without any orderly shutdown
        # work, then tear bytes off the WAL tail.
        service.close()
        wal_path = config.shard_wal_path(0)
        if chop and wal_path.exists():
            raw = wal_path.read_bytes()
            wal_path.write_bytes(raw[: max(0, len(raw) - chop)])

        expected_arcs = surviving_arcs(config)
        recovered = ShardedDetectionService.open(FIG8, config)
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


@settings(deadline=None, max_examples=15)
@given(ops=ops_strategy, snapshot_every=st.integers(min_value=1, max_value=4))
def test_double_restart_is_stable(ops, snapshot_every):
    """Recovering twice (no new damage) must be a fixed point."""
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            state_dir=Path(tmp), snapshot_every=snapshot_every, fsync=False
        )
        service = ShardedDetectionService.open(FIG8, config)
        for op, index in ops:
            seller, buyer = PAIRS[index]
            if op == OP_ADD:
                service.add_arc(seller, buyer)
            else:
                service.remove_arc(seller, buyer)
        first = service.result()
        service.close()
        for _ in range(2):
            recovered = ShardedDetectionService.open(FIG8, config)
            try:
                again = recovered.result()
                assert {g.key() for g in again.groups} == {
                    g.key() for g in first.groups
                }
            finally:
                recovered.close()
