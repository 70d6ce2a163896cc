"""State-directory layout: legacy upgrade and the N-shard fold-in.

Earlier releases ran a single-file daemon; its ``wal.jsonl`` +
``snapshot.json`` become shard 0's files at open.  Releases after that
could run ``--shards N`` workers, each with its own WAL and snapshot; the
one-writer daemon folds such a directory into shard 0's files at open.
The N-shard directories under ``fixtures/`` were written by that daemon
(``fixtures/make_shard_fixtures.py``), and ``fixtures/served.json``
records the arc set it served from each.
"""

import json
import os
import pathlib
import shutil

import pytest

from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.model.colors import EColor
from repro.service import sharding
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.snapshot import Snapshot, write_snapshot
from repro.service.wal import OP_ADD, OP_REMOVE, WriteAheadLog

COPIES = 6
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SERVED = json.loads((FIXTURES / "served.json").read_text())


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


def config_for(path):
    return ServiceConfig(state_dir=path, fsync=False)


def served_arcs(name):
    return {(seller, buyer) for seller, buyer in SERVED[name]["arcs"]}


def copy_fixture(name, tmp_path):
    state_dir = tmp_path / name
    shutil.copytree(FIXTURES / name, state_dir)
    return state_dir


class _Crash(Exception):
    """Stands in for the process dying at one step of the fold."""


def fold_steps(monkeypatch, crash_at=None):
    """Count the fold's durable steps (snapshot writes and unlinks),
    raising :class:`_Crash` instead of running step ``crash_at``."""
    steps = []
    real_write, real_unlink = sharding.write_snapshot, pathlib.Path.unlink

    def step(run):
        def wrapped(*args, **kwargs):
            if len(steps) == crash_at:
                raise _Crash
            steps.append(args[0])
            return run(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(sharding, "write_snapshot", step(real_write))
    monkeypatch.setattr(pathlib.Path, "unlink", step(real_unlink))
    return steps


FOLDED = ["snapshot-0000.json", "wal-0000.jsonl"]


@pytest.mark.parametrize("name", sorted(SERVED))
class TestFoldIn:
    def test_serves_the_recorded_set(self, tmp_path, name):
        state_dir = copy_fixture(name, tmp_path)
        with ShardedDetectionService.open(FOREST, config_for(state_dir)) as service:
            assert_serves(service, served_arcs(name))
            assert {(str(s), str(b)) for s, b in service._detector.trading_arcs()} == (
                served_arcs(name)
            )
        assert sorted(os.listdir(state_dir)) == FOLDED

    def test_crash_before_each_step_refolds_the_same(self, tmp_path, name, monkeypatch):
        shards = SERVED[name]["shards"]
        with monkeypatch.context() as patch:
            steps = fold_steps(patch)
            ShardedDetectionService.open(
                FOREST, config_for(copy_fixture(name, tmp_path / "dry"))
            ).close()
        # The union snapshot, an empty snapshot per other shard, then
        # each other shard's WAL and snapshot.
        assert len(steps) == 1 + 3 * (shards - 1)
        for crash_at in range(len(steps)):
            state_dir = copy_fixture(name, tmp_path / str(crash_at))
            with monkeypatch.context() as patch:
                fold_steps(patch, crash_at)
                with pytest.raises(_Crash):
                    ShardedDetectionService.open(FOREST, config_for(state_dir))
            with ShardedDetectionService.open(FOREST, config_for(state_dir)) as service:
                assert_serves(service, served_arcs(name))
            assert sorted(os.listdir(state_dir)) == FOLDED

    def test_second_open_is_a_no_op(self, tmp_path, name):
        state_dir = copy_fixture(name, tmp_path)
        ShardedDetectionService.open(FOREST, config_for(state_dir)).close()
        before = {p: (state_dir / p).read_bytes() for p in os.listdir(state_dir)}
        with ShardedDetectionService.open(FOREST, config_for(state_dir)) as service:
            assert service.recovered_records == 0
            assert_serves(service, served_arcs(name))
        assert {p: (state_dir / p).read_bytes() for p in os.listdir(state_dir)} == before

    def test_writes_after_the_fold_survive_a_restart(self, tmp_path, name):
        state_dir = copy_fixture(name, tmp_path)
        expected = served_arcs(name) ^ {("D2", "B2"), ("B4", "D4")}
        with ShardedDetectionService.open(FOREST, config_for(state_dir)) as service:
            assert service.add_arc("D2", "B2").applied
            assert service.remove_arc("B4", "D4").applied
        with ShardedDetectionService.open(FOREST, config_for(state_dir)) as service:
            assert service.recovered_records == 2
            assert_serves(service, expected)


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
        wal = WriteAheadLog(state_dir / "wal.jsonl", fsync=False, next_seq=2)
        wal.append(OP_ADD, "A0", "D1")  # crash before truncation
        wal.append(OP_ADD, "A3", "D4")
        wal.append(OP_REMOVE, "B1", "D1")
        wal.close()

    def test_upgrade_into_shard_zero(self, tmp_path):
        self.write_legacy(tmp_path)
        config = config_for(tmp_path)
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
        with ShardedDetectionService.open(FOREST, config_for(tmp_path)) as service:
            assert_serves(service, self.EXPECTED)
        assert sorted(os.listdir(tmp_path)) == ["snapshot-0000.json", "wal-0000.jsonl"]
