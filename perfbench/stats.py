"""Measurement helpers shared by every workload (no repro imports).

Kept free of the program under test so the self-tests can exercise the
rules on synthetic samples: the percentile rule, open-loop accounting
from the scheduled send time, and the rate ladder's backlog rule.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Host-speed reference: times are reported as they would read on a host
#: where :func:`calibration_ms` takes this long.
CALIBRATION_REF_MS = 100.0

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def arc_digest(arcs: Iterable[tuple[object, object]]) -> str:
    """Order-free fingerprint of an arc set."""
    lines = sorted(f"{a}\t{b}" for a, b in arcs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def kind_counts(groups: Iterable[Any]) -> dict[str, int]:
    """Suspicious groups per kind, e.g. ``{"circle": 3, "matched": 40}``."""
    counts: dict[str, int] = {}
    for group in groups:
        counts[group.kind.value] = counts.get(group.kind.value, 0) + 1
    return dict(sorted(counts.items()))


def calibration_ms() -> float:
    """Time a fixed interpreter workload (dict, str and sort churn)."""
    started = time.perf_counter()
    table = {f"k{i}": (i, str(i)) for i in range(120000)}
    sorted(table.items(), key=lambda item: item[1][1])
    return (time.perf_counter() - started) * 1e3


class HostSpeed:
    """Calibration samples taken next to a workload's operations.

    The shared host's speed drifts by a quarter or more over minutes,
    which moves every wall time alike.  Sampling a fixed workload in the
    same window and scaling by it cancels most of that drift; the raw
    figures are reported alongside.  Single samples are two-modal (the
    host flips between a fast and a slow speed within a second), so each
    sampling point takes several and the scale uses their mean, which is
    what an operation spanning many flips experiences.
    """

    SAMPLES_PER_POINT = 4

    def __init__(self) -> None:
        self.samples: list[float] = []
        calibration_ms()  # the first run in a process pays for heap growth

    def sample(self) -> None:
        self.samples += [calibration_ms() for _ in range(self.SAMPLES_PER_POINT)]

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this window into
        reference-host time."""
        return CALIBRATION_REF_MS / statistics.fmean(self.samples)

    def latest_scale(self) -> float:
        """The same factor from the latest sampling point alone."""
        latest = self.samples[-self.SAMPLES_PER_POINT:]
        return CALIBRATION_REF_MS / statistics.fmean(latest)


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(q, value, n)`` for the highest percentile with 10+ samples beyond it.

    Falls back to the median when even that leaves fewer than ten
    samples beyond; ``n`` is always reported so a reader can judge.
    """
    n = len(values)
    for q in TAIL_QUANTILES:
        if beyond(n, q) >= TAIL_BEYOND:
            return q, percentile(values, q), n
    return 0.5, median(values), n


@dataclass(frozen=True)
class Send:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    ok: bool
    status: int = 200

    @property
    def latency_ms(self) -> float:
        """Latency from the *scheduled* send time, so a stall that delays
        later requests is charged to them too."""
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        """How late the generator itself sent the request."""
        return max(0.0, self.sent - self.due) * 1e3


def schedule(start: float, rate: float, count: int) -> list[float]:
    """Due times of ``count`` requests at a fixed ``rate`` per second."""
    return [start + i / rate for i in range(count)]


def open_loop(
    due_times: list[float],
    send: Callable[[int], int],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Send]:
    """Send request ``i`` at ``due_times[i]`` regardless of earlier replies.

    ``send(i)`` performs the request and returns its HTTP status (raising
    counts as status 0).  A late generator sends immediately and the
    lateness shows in :attr:`Send.lag_ms`.
    """
    records: list[Send] = []
    for index, due in enumerate(due_times):
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        try:
            status = send(index)
        except Exception:  # noqa: BLE001 - a failed request is a counted miss
            status = 0
        records.append(Send(due, sent, clock(), 200 <= status < 300, status))
    return records


#: Ladder acceptance: p99 latency limit and the backlog growth allowance.
LADDER_P99_LIMIT_MS = 20.0
BACKLOG_GROWTH_MS = 5.0


def backlog_growing(sends: list[Send]) -> bool:
    """True when requests fall further behind schedule as the step runs.

    Compares the median latency-from-schedule of the last third of the
    step with the first third; a queue that keeps growing pushes the
    later requests' latency up by more than the allowance.
    """
    if len(sends) < 6:
        return False
    third = len(sends) // 3
    head = median([s.latency_ms for s in sends[:third]])
    rear = median([s.latency_ms for s in sends[-third:]])
    return rear - head > BACKLOG_GROWTH_MS


def step_passes(sends: list[Send]) -> bool:
    """A ladder step meets the limit: no refusal or failure, p99 within the
    limit (failures count as misses), and no growing backlog."""
    if not sends or not all(s.ok for s in sends):
        return False
    return (
        percentile([s.latency_ms for s in sends], 0.99) <= LADDER_P99_LIMIT_MS
        and not backlog_growing(sends)
    )


def ladder_max_rate(steps: list[tuple[float, list[Send]]]) -> float:
    """Highest rate whose step passes; 0 when none does."""
    passing = [rate for rate, sends in steps if step_passes(sends)]
    return max(passing, default=0.0)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
