"""The shared-memory name prefix that leak scans look for."""

from __future__ import annotations

import os

from repro.graph.shm import SHM_NAME_PREFIX
from repro.mining.detector import detect


def test_parallel_detect_leaves_no_segment(small_province_tpiin):
    # perfbench's batch workloads scan /dev/shm for this prefix after
    # every run; the in-process engine must never give them a hit.
    assert SHM_NAME_PREFIX == "repro_shm_"
    detect(small_province_tpiin, engine="parallel")
    if os.path.isdir("/dev/shm"):
        assert not [
            name for name in os.listdir("/dev/shm") if name.startswith(SHM_NAME_PREFIX)
        ]
