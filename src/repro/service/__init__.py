"""Long-lived detection daemon: durable state, JSON API, Python client.

The paper frames MSG detection as an offline batch over NTICS data;
this package turns the arc-decomposable streaming detector
(:mod:`repro.mining.incremental`) into an online service.  The daemon
loads a TPIIN once, then serves arc updates and detection queries over
a stdlib HTTP/JSON API with write-ahead-logged durability: a restarted
daemon replays snapshot + WAL to its exact pre-crash state.
"""

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.locks import ReadWriteLock
from repro.service.metrics import ServiceMetrics
from repro.service.server import DetectionHTTPServer, serve
from repro.service.sharding import ArcStatus, ShardedDetectionService
from repro.service.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.service.wal import (
    OP_ADD,
    OP_REMOVE,
    ReplayResult,
    WALRecord,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "ArcStatus",
    "DetectionHTTPServer",
    "ReadWriteLock",
    "ReplayResult",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardedDetectionService",
    "Snapshot",
    "WALRecord",
    "WriteAheadLog",
    "read_snapshot",
    "read_wal",
    "serve",
    "write_snapshot",
]
