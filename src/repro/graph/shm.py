"""The ``/dev/shm`` name prefix of the retired shared-memory segments.

The parallel engine once exported its frozen CSR adjacency into POSIX
shared-memory segments for a worker pool.  The pool never beat
in-process mining in a measured cell and was removed, and nothing in
``repro`` creates a segment any more.  Only the name prefix stays:
``perfbench/batch.py`` imports it for its ``/dev/shm`` leak scan, which
keeps guarding that no run leaves a segment behind.
"""

from __future__ import annotations

__all__ = ["SHM_NAME_PREFIX"]

#: Public (``/dev/shm``) name prefix the removed segments carried.
SHM_NAME_PREFIX = "repro_shm_"
