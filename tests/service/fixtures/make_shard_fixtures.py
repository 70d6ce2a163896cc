"""Regenerate the N-shard state directories under this folder.

The daemon used to run ``--shards N`` component-sharded workers, each
with its own ``wal-NNNN.jsonl`` and ``snapshot-NNNN.json``.  These
fixtures are state directories that daemon wrote, kept so the one-writer
daemon's fold-in of old directories stays tested.  They can only be
regenerated from a checkout that still has the N-shard service (git
commit 96141d0 or earlier):

    PYTHONPATH=<that checkout>/src python tests/service/fixtures/make_shard_fixtures.py

Each directory is paired with the arc set that daemon served from it, in
``served.json``.  The TPIIN is the six-copy forest that
``tests/service/test_state_dir.py`` builds.
"""

import json
import shutil
from pathlib import Path

from repro.fusion.tpiin import TPIIN
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.wal import OP_REMOVE, read_wal

HERE = Path(__file__).resolve().parent
COPIES = 6


def forest() -> TPIIN:
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


def served(service):
    return sorted(
        [str(s), str(b)] for shard in service._shards for s, b in shard.trading_arcs()
    )


def open_at(path, shards):
    config = ServiceConfig(
        state_dir=path, shards=shards, fsync=False, snapshot_every=10**6
    )
    return ShardedDetectionService.open(FOREST, config)


def homes(service):
    return {i: service._home_shard_for(f"B{i}") for i in range(COPIES)}


def two_shard(path):
    """Shard ``c`` compacted (with stale records left below its floor, a
    crash between snapshot and truncation) beside uncompacted shard ``u``,
    which lost one of its baseline arcs."""
    with open_at(path, 2) as service:
        home = homes(service)
        c = home[0]
        on_c = [i for i in range(COPIES) if home[i] == c]
        on_u = [i for i in range(COPIES) if home[i] != c]
        i, j = on_c[0], on_u[0]
        service.remove_arc(f"B{i}", f"D{i}")
        service.add_arc(f"A{i}", f"D{i}")
        service.add_arc(f"B{i}", f"D{i}")  # re-added: the stale remove must not win
        service.add_arc(f"D{i}", f"B{i}")
        wal = service._shards[c]._wal.path
        service._shards[c]._wal.sync()
        before = wal.read_bytes()
        service._shards[c].compact()
        wal.write_bytes(before)  # the truncation never reached the disk
        service.remove_arc(f"D{i}", f"B{i}")  # above the floor: must apply
        service.remove_arc(f"B{j}", f"D{j}")
        service.add_arc(f"A{j}", f"D{j}")
        return 2, served(service)


def _bridge(service, home):
    """Copies ``i``, ``j`` homed on different shards."""
    for i in range(COPIES):
        for j in range(i + 1, COPIES):
            if home[i] != home[j]:
                return i, j
    raise AssertionError("all copies homed identically")


def four_shard_merged(path):
    """Two cross-shard merges moved baseline arcs off snapshotless shards
    (destination add, source remove); a migrated arc was later removed by
    its new owner, and an untouched shard lost a baseline arc, compacted,
    then took one more add."""
    with open_at(path, 4) as service:
        home = homes(service)
        i, j = _bridge(service, home)
        service.add_arc(f"A{i}", f"D{i}")
        service.add_arc(f"B{i}", f"D{j}")  # merge 1
        home = homes(service)
        k = next(x for x in range(COPIES) if home[x] != home[i])
        service.add_arc(f"B{k}", f"D{i}")  # merge 2
        service.remove_arc(f"B{j}", f"D{j}")  # migrated, removed at its owner
        home = homes(service)
        rest = [x for x in range(COPIES) if home[x] != home[i]]
        service.remove_arc(f"B{rest[0]}", f"D{rest[0]}")
        service._shards[home[rest[0]]].compact()
        service.add_arc(f"A{rest[0]}", f"D{rest[0]}")
        service.add_arc(f"D{rest[-1]}", f"A{rest[-1]}")
        return 4, served(service)


def four_shard_mid_merge(path):
    """A crash after a merge's destination sync, before its source sync:
    the migrated arcs are on both shards and no dedupe remove was logged
    (the triggering arc was never applied)."""
    with open_at(path, 4) as service:
        home = homes(service)
        i, j = _bridge(service, home)
        service.add_arc(f"A{i}", f"D{i}")
        service.add_arc(f"A{j}", f"D{j}")
        service.add_arc(f"B{i}", f"D{j}")  # the merge to cut short
        src = next(
            index
            for index, shard in enumerate(service._shards)
            if any(r.op == OP_REMOVE for r in read_wal(shard._wal.path).records)
        )
        dst = service._home_shard_for(f"B{i}")
        src_wal = service._shards[src]._wal.path
        dst_wal = service._shards[dst]._wal.path
    # Cut the log back to the crash point: drop the source removes and
    # the destination's triggering add.
    src_lines = [
        line for line in src_wal.read_text().splitlines(keepends=True)
        if json.loads(line)["op"] != OP_REMOVE
    ]
    src_wal.write_text("".join(src_lines))
    dst_lines = dst_wal.read_text().splitlines(keepends=True)
    assert json.loads(dst_lines[-1])["seller"] == f"B{i}"
    dst_wal.write_text("".join(dst_lines[:-1]))
    # What the N-shard daemon serves from this image (its open dedupes a
    # scratch copy; the committed directory keeps the duplicate).
    scratch = path.with_name(path.name + ".open")
    shutil.copytree(path, scratch)
    try:
        with open_at(scratch, 4) as service:
            return 4, served(service)
    finally:
        shutil.rmtree(scratch)


def main():
    table = {}
    for name, build in (
        ("two-shard", two_shard),
        ("four-shard-merged", four_shard_merged),
        ("four-shard-mid-merge", four_shard_mid_merge),
    ):
        path = HERE / name
        shutil.rmtree(path, ignore_errors=True)
        shards, arcs = build(path)
        table[name] = {"shards": shards, "arcs": arcs}
    rows = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(entry)}" for name, entry in table.items()
    )
    (HERE / "served.json").write_text("{\n" + rows + "\n}\n")


if __name__ == "__main__":
    main()
