"""Snapshot atomicity, durability and validation."""

import json
import os
import stat

import pytest

from repro.errors import SerializationError
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "snapshot.json"
        snapshot = Snapshot(last_seq=7, arcs=(("a", "b"), ("c", "d")))
        write_snapshot(path, snapshot)
        loaded = read_snapshot(path)
        assert loaded == snapshot
        assert loaded.arc_count == 2

    def test_missing_reads_none(self, tmp_path):
        assert read_snapshot(tmp_path / "absent.json") is None

    def test_empty_arc_set(self, tmp_path):
        path = tmp_path / "snapshot.json"
        write_snapshot(path, Snapshot(last_seq=0, arcs=()))
        assert read_snapshot(path) == Snapshot(last_seq=0, arcs=())

    def test_overwrite_is_atomic(self, tmp_path):
        path = tmp_path / "snapshot.json"
        write_snapshot(path, Snapshot(last_seq=1, arcs=(("a", "b"),)))
        write_snapshot(path, Snapshot(last_seq=2, arcs=(("c", "d"),)))
        assert read_snapshot(path).last_seq == 2
        assert not path.with_suffix(".json.tmp").exists()

    def test_directory_synced_after_replace(self, tmp_path, monkeypatch):
        # Callers truncate the WAL once write_snapshot returns, so the
        # rename itself must be durable: the parent directory has to be
        # fsynced after os.replace, not only the temp file before it.
        path = tmp_path / "snapshot.json"
        write_snapshot(path, Snapshot(last_seq=1, arcs=(("a", "b"),)))
        real_fsync = os.fsync
        synced: list[tuple[bool, int | None]] = []

        def recording_fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            seq = read_snapshot(path).last_seq if is_dir else None
            synced.append((is_dir, seq))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_snapshot(path, Snapshot(last_seq=2, arcs=(("c", "d"),)))
        assert synced[0] == (False, None)  # the temp file, before the rename
        # The directory sync sees the renamed (new) snapshot in place.
        assert (True, 2) in synced[1:]


class TestValidation:
    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="not a valid snapshot"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "payload",
        [
            [],  # not an object
            {"format": 99, "last_seq": 0, "arcs": []},
            {"format": 1, "last_seq": -1, "arcs": []},
            {"format": 1, "last_seq": True, "arcs": []},
            {"format": 1, "last_seq": 0, "arcs": {}},
            {"format": 1, "last_seq": 0, "arcs": [["a"]]},
            {"format": 1, "last_seq": 0, "arcs": [["a", 3]]},
        ],
    )
    def test_malformed_payload_raises(self, tmp_path, payload):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            read_snapshot(path)
