"""Operational metrics for the detection daemon.

Implemented over :class:`repro.obs.registry.MetricsRegistry` so the
daemon and the batch pipeline report through one schema.  Every
observation is written twice:

* into a **private** per-instance registry — a daemon restarted inside
  one process (tests, embedding) must report its own counts, and the
  legacy ``/metrics`` JSON keys (``requests``, ``latency_ms``,
  ``arcs_added``, ...) read from here;
* into the **shared** process-wide registry
  (:func:`repro.obs.registry.get_registry`) — the source for the
  Prometheus text exposition and the ``registry`` section of the JSON
  payload, merged with whatever the batch ``detect()`` path and the
  streaming detector's path-cache counters recorded.
"""

from __future__ import annotations

import time

from repro.obs.registry import Histogram, MetricsRegistry, get_registry

__all__ = ["ServiceMetrics"]

#: Upper bucket bounds in milliseconds (the last bucket is +inf).
_LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


class ServiceMetrics:
    """Thread-safe metric recorder for one daemon instance."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._shared = registry if registry is not None else get_registry()
        self._own = MetricsRegistry()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def observe_request(self, endpoint: str, status: int, elapsed_ms: float) -> None:
        status_class = f"{status // 100}xx"
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_http_requests_total",
                help="HTTP requests served, by endpoint.",
                endpoint=endpoint,
            ).inc()
            if status >= 400:
                registry.counter(
                    "repro_http_errors_total",
                    help="HTTP responses with status >= 400, by endpoint.",
                    endpoint=endpoint,
                ).inc()
            # Two latency series: the endpoint-only histogram feeds the
            # legacy ``latency_ms`` JSON keys; the (endpoint, status
            # class) one is the per-route SLO series Prometheus scrapes.
            registry.histogram(
                "repro_http_request_duration_ms",
                buckets=_LATENCY_BUCKETS_MS,
                help="HTTP request wall time in milliseconds.",
                endpoint=endpoint,
            ).observe(elapsed_ms)
            registry.histogram(
                "repro_http_request_duration_by_status_ms",
                buckets=_LATENCY_BUCKETS_MS,
                help="HTTP request wall time in milliseconds, by endpoint "
                "and status class.",
                endpoint=endpoint,
                status_class=status_class,
            ).observe(elapsed_ms)

    def observe_batch(self, accepted: int, rejected: int, elapsed_ms: float) -> None:
        """One ``POST /v1/arcs:batch`` ingest: per-line tallies + wall time."""
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_batch_requests_total",
                help="NDJSON batch-ingest requests served.",
            ).inc()
            registry.counter(
                "repro_batch_lines_total",
                help="NDJSON batch lines processed, by outcome.",
                outcome="accepted",
            ).inc(accepted)
            registry.counter(
                "repro_batch_lines_total",
                help="NDJSON batch lines processed, by outcome.",
                outcome="rejected",
            ).inc(rejected)
            registry.histogram(
                "repro_batch_duration_ms",
                buckets=_LATENCY_BUCKETS_MS,
                help="Batch-ingest wall time in milliseconds.",
            ).observe(elapsed_ms)

    def set_queue_depth(self, depth: int, capacity: int) -> None:
        """Current occupancy of the bounded ingest queue."""
        for registry in (self._own, self._shared):
            registry.gauge(
                "repro_ingest_queue_depth",
                help="Pending mutations in the ingest queue.",
            ).set(depth)
            registry.gauge(
                "repro_ingest_queue_capacity",
                help="Bound of the ingest queue.",
            ).set(capacity)

    def count_shed(self) -> None:
        """One request shed (429) because the ingest queue was full."""
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_ingest_shed_total",
                help="Mutations rejected with 429 by admission control.",
            ).inc()

    def count_arc_applied(self, op: str) -> None:
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_arcs_applied_total",
                help="Acknowledged trading-arc mutations, by operation.",
                op=op,
            ).inc()

    def count_snapshot(self) -> None:
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_snapshots_written_total",
                help="Snapshots written by compaction.",
            ).inc()

    def count_wal_append(self) -> None:
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_wal_appends_total",
                help="Records appended to the write-ahead log.",
            ).inc()

    def count_wal_replay(self, records: int, *, torn_tail: bool) -> None:
        for registry in (self._own, self._shared):
            registry.counter(
                "repro_wal_replayed_records_total",
                help="WAL records replayed during recovery.",
            ).inc(records)
            if torn_tail:
                registry.counter(
                    "repro_wal_torn_tails_total",
                    help="Torn WAL tails healed during recovery.",
                ).inc()

    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    @property
    def shared_registry(self) -> MetricsRegistry:
        """The process-wide registry this instance mirrors into."""
        return self._shared

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the shared registry."""
        self._shared.gauge(
            "repro_service_uptime_seconds",
            help="Seconds since this daemon's metrics started.",
        ).set(self.uptime_seconds)
        return self._shared.render_prometheus()

    def to_dict(self) -> dict[str, object]:
        """The legacy per-instance JSON view plus the registry export."""
        requests: dict[str, float] = {}
        errors: dict[str, float] = {}
        latency: dict[str, object] = {}
        for labels, metric in self._own.series_for("repro_http_requests_total"):
            requests[labels.get("endpoint", "")] = metric.value
        for labels, metric in self._own.series_for("repro_http_errors_total"):
            errors[labels.get("endpoint", "")] = metric.value
        for labels, metric in self._own.series_for("repro_http_request_duration_ms"):
            if isinstance(metric, Histogram):
                payload = metric.to_dict()
                payload["p50_ms"] = metric.quantile(0.5)
                payload["p99_ms"] = metric.quantile(0.99)
                latency[labels.get("endpoint", "")] = payload
        return {
            "uptime_seconds": self.uptime_seconds,
            "requests": dict(sorted(requests.items())),
            "errors": dict(sorted(errors.items())),
            "latency_ms": dict(sorted(latency.items())),
            "arcs_added": self._op_count("add"),
            "arcs_removed": self._op_count("remove"),
            "snapshots_written": self._own.counter(
                "repro_snapshots_written_total"
            ).value,
            "registry": self._shared.to_dict(),
        }

    def _op_count(self, op: str) -> float:
        return self._own.counter("repro_arcs_applied_total", op=op).value
