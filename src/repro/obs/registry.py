"""Process-wide metrics registry (counters, gauges, histograms).

The process-wide :class:`MetricsRegistry` holds the library series —
batch-detect tallies, detector runs, path-cache hit rates; each serving
daemon keeps its own instance for its request and WAL series.  Both
report through one schema, so the service's ``/v1/metrics`` endpoint
exports the two side by side.  Two exporters:

* :meth:`MetricsRegistry.to_dict` — one JSON document, metric name ->
  ``{kind, help, series: [{labels, ...values}]}``;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format (``# TYPE`` / ``# HELP`` headers, ``_bucket`` /
  ``_sum`` / ``_count`` expansion for histograms).

Metrics are identified by ``(name, sorted labels)``; requesting the
same identity twice returns the same instance, so call sites simply ask
for ``registry.counter("repro_wal_appends_total")`` wherever they are.
All mutations are guarded by one registry lock — these are tiny
critical sections, never on a per-node hot path (pipeline inner loops
report via span attributes and flush once per run).
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Union

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

#: Upper bucket bounds in milliseconds (the last bucket is +inf).
DEFAULT_LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

_LabelKey = tuple[tuple[str, str], ...]
Metric = Union["Counter", "Gauge", "Histogram"]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "_value")
    kind = "counter"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (sizes, capacities, uptimes)."""

    __slots__ = ("_lock", "_value")
    kind = "gauge"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"value": self._value}


class Histogram:
    """Fixed-bucket distribution (cumulative on export, as Prometheus).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    ``+inf`` bucket is implicit.  Counts are stored per-bucket and
    cumulated at export time.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(self, lock: threading.Lock, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the bucket that crosses the target
        rank, as Prometheus' ``histogram_quantile`` does.  Values above
        the last finite bound clamp to it (the ``+inf`` bucket has no
        upper edge to interpolate toward); an empty histogram reports
        ``0.0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        lower = 0.0
        for bound, count in zip(self._bounds, counts):
            if running + count >= rank and count:
                fraction = (rank - running) / count
                return lower + (bound - lower) * fraction
            running += count
            lower = bound
        return self._bounds[-1] if self._bounds else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out

    def to_dict(self) -> dict[str, object]:
        buckets = {
            ("le_inf" if bound == float("inf") else f"le_{bound:g}"): cumulative
            for bound, cumulative in self.cumulative_buckets()
        }
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named, labelled metric series with JSON and Prometheus exporters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, _LabelKey], Metric] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    # metric accessors (create on first use, idempotent afterwards)
    # ------------------------------------------------------------------
    def counter(self, name: str, *, help: str = "", **labels: str) -> Counter:
        metric = self._get_or_create(name, "counter", help, labels, ())
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, *, help: str = "", **labels: str) -> Gauge:
        metric = self._get_or_create(name, "gauge", help, labels, ())
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        metric = self._get_or_create(name, "histogram", help, labels, tuple(buckets))
        assert isinstance(metric, Histogram)
        return metric

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, str],
        buckets: tuple[float, ...],
    ) -> Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is not None:
                if self._kinds[name] != kind:
                    raise ValueError(
                        f"metric {name!r} is a {self._kinds[name]}, not a {kind}"
                    )
                return metric
            if name in self._kinds and self._kinds[name] != kind:
                raise ValueError(
                    f"metric {name!r} is a {self._kinds[name]}, not a {kind}"
                )
            created: Metric
            if kind == "counter":
                created = Counter(self._lock)
            elif kind == "gauge":
                created = Gauge(self._lock)
            else:
                created = Histogram(self._lock, buckets)
            self._series[key] = created
            self._kinds[name] = kind
            if help or name not in self._help:
                self._help[name] = help
            return created

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._kinds)

    def series_for(self, name: str) -> list[tuple[dict[str, str], Metric]]:
        """Every ``(labels, metric)`` series registered under ``name``."""
        with self._lock:
            return [
                (dict(key[1]), metric)
                for key, metric in sorted(self._series.items())
                if key[0] == name
            ]

    def to_dict(self) -> dict[str, object]:
        """One JSON document over every metric (the ``/v1/metrics`` body)."""
        out: dict[str, object] = {}
        for name in self.names():
            series = [
                {"labels": labels, **metric.to_dict()}
                for labels, metric in self.series_for(name)
            ]
            out[name] = {
                "kind": self._kinds[name],
                "help": self._help.get(name, ""),
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            kind = self._kinds[name]
            help_text = self._help.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, metric in self.series_for(name):
                if isinstance(metric, Histogram):
                    for bound, cumulative in metric.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        lines.append(
                            f"{name}_bucket{_fmt_labels({**labels, 'le': le})} "
                            f"{cumulative}"
                        )
                    lines.append(f"{name}_sum{_fmt_labels(labels)} {metric.sum:g}")
                    lines.append(f"{name}_count{_fmt_labels(labels)} {metric.count}")
                else:
                    lines.append(f"{name}{_fmt_labels(labels)} {metric.value:g}")
        return "\n".join(lines) + "\n"


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry batch and service paths share."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
