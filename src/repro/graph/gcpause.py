"""Pause the cyclic garbage collector around bulk builders.

CPython's cyclic collector runs every time the count of tracked
allocations crosses a threshold, and a full collection walks every
tracked object in the heap.  A builder that allocates hundreds of
thousands of long-lived tuples and small objects in one go (decoding
the mined groups) therefore triggers
repeated full scans of the whole TPIIN heap, although nothing it builds
can form a reference cycle.  :func:`gc_paused` turns the collector off
for the duration of such a builder.

Only wrap builders whose output is pure acyclic data, or a tree that is
garbage once the call returns.  Pausing a builder of long-lived mixed
structure (``TPIIN.build``, the detector portfolio) only moves the
collection into whatever runs next.

The pause nests and is thread-safe: a depth counter under a lock
disables the collector at the outermost entry and re-enables it at the
outermost exit, and only if it was enabled at that entry, so a caller
that switched the collector off itself finds it still off afterwards.

At the outermost exit the pause also promotes every tracked object,
the builder's output included, straight into the oldest generation
(``gc.freeze()`` then ``gc.unfreeze()``, two list splices).  Without
that, the young-generation collections owed for the builder's
allocations would run right after the ``with`` block and walk all of
its output, once per generation, before it settles in the oldest one.
Objects promoted this way do not count towards the next full
collection either.  The promotion is skipped while
``gc.get_freeze_count()`` is non-zero: ``gc.unfreeze()`` would release
what a caller froze on purpose, so a caller's own freeze is left alone
(and the owed collections then run as before).
"""

from __future__ import annotations

import gc
import threading

__all__ = ["gc_paused"]


class _Pause:
    """The pause state: one depth counter shared by every thread.

    It is a single process-wide object because the collector it
    switches is process-wide: two independent counters would let one
    caller re-enable the collector under another's pause.
    """

    __slots__ = ("_lock", "_depth", "_restore")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                if self._restore:
                    gc.enable()


_PAUSE = _Pause()


def gc_paused() -> _Pause:
    """Context manager: run the ``with`` body with the collector disabled."""
    return _PAUSE
