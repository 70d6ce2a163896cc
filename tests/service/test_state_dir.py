"""State-directory layout: the legacy upgrade and the fixed shard count.

Earlier releases ran a single-file daemon at the default shard count; its
``wal.jsonl`` + ``snapshot.json`` become shard 0's files on the first
one-shard open.  A directory holding state for N shards refuses to open at
any other count: shard files past the new count would go unread, and a
baseline re-seeded by hash home would undo acknowledged removes.
"""

import itertools
import os

import pytest

from repro.errors import ServiceError
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.snapshot import Snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog

COPIES = 6


def forest() -> TPIIN:
    """Six disjoint components, each with one suspicious baseline arc."""
    persons, companies, influence = [], [], []
    for i in range(COPIES):
        persons.append(f"P{i}")
        companies += [f"A{i}", f"B{i}", f"D{i}"]
        influence += [(f"P{i}", f"A{i}"), (f"P{i}", f"D{i}"), (f"A{i}", f"B{i}")]
    return TPIIN.build(
        persons=persons,
        companies=companies,
        influence=influence,
        trading=[(f"B{i}", f"D{i}") for i in range(COPIES)],
    )


FOREST = forest()
BASELINE = {(str(s), str(b)) for s, b in FOREST.trading_arcs()}


def faithful_over(arcs):
    graph = FOREST.antecedent_graph()
    for seller, buyer in sorted(arcs):
        graph.add_arc(seller, buyer, EColor.TRADING)
    return detect(TPIIN(graph=graph), engine="faithful")


def assert_serves(service, arcs):
    batch = faithful_over(arcs)
    result = service.result()
    assert service.arc_count() == len(arcs)
    assert {g.key() for g in result.groups} == {g.key() for g in batch.groups}
    assert result.suspicious_trading_arcs == batch.suspicious_trading_arcs


def config_for(path, shards):
    return ServiceConfig(state_dir=path, shards=shards, fsync=False)


class TestShardCountIsFixed:
    @pytest.mark.parametrize(
        "before,after", list(itertools.permutations([1, 2, 4], 2))
    )
    def test_other_count_refused_and_nothing_lost(self, tmp_path, before, after):
        adds = [(f"A{i}", f"D{(i + 1) % COPIES}") for i in range(COPIES)]
        removed = ("B2", "D2")
        with ShardedDetectionService.open(FOREST, config_for(tmp_path, before)) as service:
            for seller, buyer in adds:
                assert service.add_arc(seller, buyer).applied
            assert service.remove_arc(*removed).applied
        with pytest.raises(ServiceError, match=f"--shards {before}"):
            ShardedDetectionService.open(FOREST, config_for(tmp_path, after)).close()
        with ShardedDetectionService.open(FOREST, config_for(tmp_path, before)) as service:
            assert_serves(service, (BASELINE | set(adds)) - {removed})

    def test_first_boot_pins_the_count(self, tmp_path):
        # No writes at all: the count is still recorded by the WAL files.
        with ShardedDetectionService.open(FOREST, config_for(tmp_path, 4)):
            pass
        with pytest.raises(ServiceError, match="--shards 4"):
            ShardedDetectionService.open(FOREST, config_for(tmp_path, 1)).close()

    def test_legacy_state_counts_as_one_shard(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path / "wal.jsonl", fsync=False)
        wal.append(OP_ADD, "A0", "D1")
        wal.close()
        with pytest.raises(ServiceError, match="--shards 1"):
            ShardedDetectionService.open(FOREST, config_for(tmp_path, 2)).close()


class TestLegacyUpgrade:
    #: Legacy state: a snapshot at seq 2 (baseline minus B0->D0, plus
    #: A0->D1), then a WAL holding one stale record and two live ones.
    SNAPSHOT_ARCS = (BASELINE - {("B0", "D0")}) | {("A0", "D1")}
    EXPECTED = (SNAPSHOT_ARCS | {("A3", "D4")}) - {("B1", "D1")}

    def write_legacy(self, state_dir):
        state_dir.mkdir(parents=True, exist_ok=True)
        write_snapshot(
            state_dir / "snapshot.json",
            Snapshot(last_seq=2, arcs=tuple(sorted(self.SNAPSHOT_ARCS))),
        )
        wal, _ = WriteAheadLog.open(state_dir / "wal.jsonl", fsync=False)
        wal.append(OP_ADD, "A0", "D1", seq=2)  # crash before truncation
        wal.append(OP_ADD, "A3", "D4")
        wal.append(OP_REMOVE, "B1", "D1")
        wal.close()

    def test_upgrade_into_shard_zero(self, tmp_path):
        self.write_legacy(tmp_path)
        config = config_for(tmp_path, 1)
        with ShardedDetectionService.open(FOREST, config) as service:
            assert service.recovered_from_snapshot
            assert service.recovered_records == 2
            assert_serves(service, self.EXPECTED)
            assert service.add_arc("A5", "D0").applied
        assert not (tmp_path / "wal.jsonl").exists()
        assert not (tmp_path / "snapshot.json").exists()
        with ShardedDetectionService.open(FOREST, config) as service:
            assert_serves(service, self.EXPECTED | {("A5", "D0")})

    def test_crash_between_the_renames(self, tmp_path):
        self.write_legacy(tmp_path)
        # The snapshot is renamed first; the WAL rename never happened.
        os.rename(tmp_path / "snapshot.json", tmp_path / "snapshot-0000.json")
        with ShardedDetectionService.open(FOREST, config_for(tmp_path, 1)) as service:
            assert_serves(service, self.EXPECTED)
        assert sorted(os.listdir(tmp_path)) == ["snapshot-0000.json", "wal-0000.jsonl"]
