"""The daemon's one writer: recovery, durability ordering, compaction,
metrics."""

import pytest

from repro.errors import ServiceError
from repro.fusion.tpiin import TPIIN
from repro.mining.detector import detect
from repro.service.config import ServiceConfig
from repro.service.sharding import ShardedDetectionService
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.service.wal import read_wal


def config_for(tmp_path, **overrides) -> ServiceConfig:
    overrides.setdefault("snapshot_every", 1000)
    return ServiceConfig(state_dir=tmp_path / "state", **overrides)


def group_keys(result):
    return {g.key() for g in result.groups}


class TestFirstBoot:
    def test_boot_matches_batch(self, fig8, tmp_path):
        with ShardedDetectionService.open(fig8, config_for(tmp_path)) as service:
            batch = detect(fig8, engine="faithful")
            result = service.result()
            assert group_keys(result) == group_keys(batch)
            assert result.suspicious_trading_arcs == batch.suspicious_trading_arcs
            assert service.arc_count() == batch.total_trading_arcs
            assert not service.recovered_from_snapshot
            assert service.recovered_records == 0

    def test_boot_does_not_log_baseline(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config):
            pass
        assert read_wal(config.shard_wal_path(0)).records == ()


class TestDurabilityOrdering:
    def test_applied_ops_reach_the_wal(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            update = service.remove_arc("C3", "C5")
            assert update.applied
            service.add_arc("C3", "C5")
        records = read_wal(config.shard_wal_path(0)).records
        assert [(r.op, r.seller, r.buyer) for r in records] == [
            ("remove", "C3", "C5"),
            ("add", "C3", "C5"),
        ]

    def test_noops_are_not_logged(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            assert not service.add_arc("C3", "C5").applied  # already present
            assert not service.remove_arc("C1", "C2").applied  # absent
        assert read_wal(config.shard_wal_path(0)).records == ()

    def test_rejected_updates_are_not_logged(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            from repro.errors import MiningError

            with pytest.raises(MiningError):
                service.add_arc("C3", "C99")
        assert read_wal(config.shard_wal_path(0)).records == ()


class TestRestart:
    def test_restart_replays_wal(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            service.add_arc("C8", "C3")
            before = service.result()
        with ShardedDetectionService.open(fig8, config) as service:
            assert service.recovered_records == 2
            after = service.result()
            assert group_keys(after) == group_keys(before)
            assert (
                after.suspicious_trading_arcs == before.suspicious_trading_arcs
            )

    def test_restart_from_snapshot_plus_wal(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            service.compact()
            service.add_arc("C3", "C5")  # lands in the post-snapshot WAL
            before = service.result()
        with ShardedDetectionService.open(fig8, config) as service:
            assert service.recovered_from_snapshot
            assert service.recovered_records == 1
            assert group_keys(service.result()) == group_keys(before)

    def test_replay_against_wrong_tpiin_raises(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.add_arc("C8", "C3")
        stranger = TPIIN.build(
            persons=["p"], companies=["x", "y"], influence=[("p", "x")]
        )
        with pytest.raises(ServiceError, match="replay"):
            ShardedDetectionService.open(stranger, config)

    def test_snapshot_against_wrong_tpiin_raises(self, fig8, tmp_path):
        config = config_for(tmp_path)
        config.ensure_state_dir()
        write_snapshot(
            config.shard_snapshot_path(0),
            Snapshot(last_seq=3, arcs=(("C3", "C5"), ("C5", "C99"))),
        )
        with pytest.raises(
            ServiceError, match=r"^snapshot seed failed: seed arc \('C5' -> 'C99'\)"
        ):
            ShardedDetectionService.open(fig8, config)


class TestCompaction:
    def test_auto_compaction_after_threshold(self, fig8, tmp_path):
        config = config_for(tmp_path, snapshot_every=2)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            assert read_snapshot(config.shard_snapshot_path(0)) is None
            service.remove_arc("C5", "C6")  # second applied op -> compacts
            snapshot = read_snapshot(config.shard_snapshot_path(0))
            assert snapshot is not None and snapshot.last_seq == 2
            assert read_wal(config.shard_wal_path(0)).records == ()
            before = service.result()
        with ShardedDetectionService.open(fig8, config) as service:
            assert service.recovered_from_snapshot
            assert group_keys(service.result()) == group_keys(before)

    def test_manual_compact(self, fig8, tmp_path):
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            snapshot = service.compact()
            assert snapshot.last_seq == 1
            assert ("C3", "C5") not in [tuple(a) for a in snapshot.arcs]
            assert service.metrics.to_dict()["snapshots_written"] == 1

    def test_crash_between_snapshot_and_truncate(self, fig8, tmp_path):
        # Simulate by re-appending the already-snapshotted record: the
        # recovery floor (snapshot.last_seq) must discard it.
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            snapshot = service.compact()
            before = service.result()
        stale = config.shard_wal_path(0)
        from repro.service.wal import WALRecord

        record = WALRecord(seq=snapshot.last_seq, op="remove", seller="C3", buyer="C5")
        stale.write_text(record.to_json() + "\n")
        with ShardedDetectionService.open(fig8, config) as service:
            assert service.recovered_records == 0  # stale record skipped
            assert group_keys(service.result()) == group_keys(before)


    def test_writes_after_reopening_a_truncated_log_survive(self, fig8, tmp_path):
        # The WAL is empty after compaction; sequence numbers must still
        # continue above the snapshot's floor, or the next restart would
        # skip the new records as stale.
        config = config_for(tmp_path)
        with ShardedDetectionService.open(fig8, config) as service:
            service.remove_arc("C3", "C5")
            service.compact()
        with ShardedDetectionService.open(fig8, config) as service:
            service.add_arc("C8", "C3")
        with ShardedDetectionService.open(fig8, config) as service:
            assert service.recovered_records == 1
            assert service.arc_status("C8", "C3").present


class TestMetricsAndQueries:
    def test_path_cache_hits_on_rework(self, fig8, tmp_path):
        with ShardedDetectionService.open(fig8, config_for(tmp_path)) as service:
            # The seed mines in one batch, so the first rework warms the
            # cache and the second one hits it.
            for _ in range(2):
                service.remove_arc("C3", "C5")
                service.add_arc("C3", "C5")
            payload = service.metrics_payload()
            assert payload["path_cache"]["hits"] >= 1
            assert payload["arcs_added"] == 2
            assert payload["arcs_removed"] == 2

    def test_arc_status(self, fig8, tmp_path):
        with ShardedDetectionService.open(fig8, config_for(tmp_path)) as service:
            status = service.arc_status("C3", "C5")
            assert status.present and status.suspicious
            assert len(status.groups) == 1
            absent = service.arc_status("C1", "C2")
            assert not absent.present and not absent.suspicious

    def test_health_payload(self, fig8, tmp_path):
        with ShardedDetectionService.open(fig8, config_for(tmp_path)) as service:
            health = service.health()
            assert health["status"] == "ok"
            assert health["arcs"] == 5
            assert health["wal_seq"] == 0

    def test_investigate(self, fig8, tmp_path):
        with ShardedDetectionService.open(fig8, config_for(tmp_path)) as service:
            investigation = service.investigate("C5")
            assert investigation.company == "C5"
            assert investigation.to_dict()["group_count"] >= 1


class TestLifecycle:
    def test_closed_service_rejects_mutations(self, fig8, tmp_path):
        service = ShardedDetectionService.open(fig8, config_for(tmp_path))
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.add_arc("C8", "C3")

    def test_close_is_idempotent(self, fig8, tmp_path):
        service = ShardedDetectionService.open(fig8, config_for(tmp_path))
        service.close()
        service.close()
