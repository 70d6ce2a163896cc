"""Operational metrics for the detection daemon.

Implemented over :class:`repro.obs.registry.MetricsRegistry` so the
daemon and the batch pipeline report through one schema.  Each daemon
records every observation once, into its own registry: two daemons in
one process (tests, embedding) each report only their own requests,
and a restarted daemon starts from zero.

The exporters (the Prometheus text and the ``registry`` section of the
JSON payload) render that registry followed by the process-wide one
(:func:`repro.obs.registry.get_registry`), which holds the library
series: ``repro_detect_*`` from ``detect()``, ``repro_detector_*`` from
the portfolio runner and ``repro_path_cache_*`` from the streaming
detector.  The daemon never writes those names, so the two sets of
series never overlap.
"""

from __future__ import annotations

import time

from repro.obs.registry import Histogram, MetricsRegistry, get_registry

__all__ = ["ServiceMetrics"]

#: Upper bucket bounds in milliseconds (the last bucket is +inf).
_LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


class ServiceMetrics:
    """Thread-safe metric recorder for one daemon instance."""

    def __init__(self) -> None:
        self._registry = MetricsRegistry()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def observe_request(self, endpoint: str, status: int, elapsed_ms: float) -> None:
        status_class = f"{status // 100}xx"
        self._registry.counter(
            "repro_http_requests_total",
            help="HTTP requests served, by endpoint.",
            endpoint=endpoint,
        ).inc()
        if status >= 400:
            self._registry.counter(
                "repro_http_errors_total",
                help="HTTP responses with status >= 400, by endpoint.",
                endpoint=endpoint,
            ).inc()
        # Two latency series: the endpoint-only histogram feeds the
        # legacy ``latency_ms`` JSON keys; the (endpoint, status
        # class) one is the per-route SLO series Prometheus scrapes.
        self._registry.histogram(
            "repro_http_request_duration_ms",
            buckets=_LATENCY_BUCKETS_MS,
            help="HTTP request wall time in milliseconds.",
            endpoint=endpoint,
        ).observe(elapsed_ms)
        self._registry.histogram(
            "repro_http_request_duration_by_status_ms",
            buckets=_LATENCY_BUCKETS_MS,
            help="HTTP request wall time in milliseconds, by endpoint "
            "and status class.",
            endpoint=endpoint,
            status_class=status_class,
        ).observe(elapsed_ms)

    def observe_batch(self, accepted: int, rejected: int, elapsed_ms: float) -> None:
        """One ``POST /v1/arcs:batch`` ingest: per-line tallies + wall time."""
        self._registry.counter(
            "repro_batch_requests_total",
            help="NDJSON batch-ingest requests served.",
        ).inc()
        self._registry.counter(
            "repro_batch_lines_total",
            help="NDJSON batch lines processed, by outcome.",
            outcome="accepted",
        ).inc(accepted)
        self._registry.counter(
            "repro_batch_lines_total",
            help="NDJSON batch lines processed, by outcome.",
            outcome="rejected",
        ).inc(rejected)
        self._registry.histogram(
            "repro_batch_duration_ms",
            buckets=_LATENCY_BUCKETS_MS,
            help="Batch-ingest wall time in milliseconds.",
        ).observe(elapsed_ms)

    def set_queue_depth(self, depth: int, capacity: int) -> None:
        """Current occupancy of the bounded ingest queue."""
        self._registry.gauge(
            "repro_ingest_queue_depth",
            help="Pending mutations in the ingest queue.",
        ).set(depth)
        self._registry.gauge(
            "repro_ingest_queue_capacity",
            help="Bound of the ingest queue.",
        ).set(capacity)

    def count_shed(self) -> None:
        """One request shed (429) because the ingest queue was full."""
        self._registry.counter(
            "repro_ingest_shed_total",
            help="Mutations rejected with 429 by admission control.",
        ).inc()

    def count_arc_applied(self, op: str) -> None:
        self._registry.counter(
            "repro_arcs_applied_total",
            help="Acknowledged trading-arc mutations, by operation.",
            op=op,
        ).inc()

    def count_snapshot(self) -> None:
        self._registry.counter(
            "repro_snapshots_written_total",
            help="Snapshots written by compaction.",
        ).inc()

    def count_wal_append(self) -> None:
        self._registry.counter(
            "repro_wal_appends_total",
            help="Records appended to the write-ahead log.",
        ).inc()

    def count_wal_replay(self, records: int, *, torn_tail: bool) -> None:
        self._registry.counter(
            "repro_wal_replayed_records_total",
            help="WAL records replayed during recovery.",
        ).inc(records)
        if torn_tail:
            self._registry.counter(
                "repro_wal_torn_tails_total",
                help="Torn WAL tails healed during recovery.",
            ).inc()

    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def render_prometheus(self) -> str:
        """Prometheus text: this daemon's series, then the library series."""
        self._registry.gauge(
            "repro_service_uptime_seconds",
            help="Seconds since this daemon's metrics started.",
        ).set(self.uptime_seconds)
        return self._registry.render_prometheus() + get_registry().render_prometheus()

    def to_dict(self) -> dict[str, object]:
        """The legacy per-instance JSON view plus the registry export."""
        requests: dict[str, float] = {}
        errors: dict[str, float] = {}
        latency: dict[str, object] = {}
        for labels, metric in self._registry.series_for("repro_http_requests_total"):
            requests[labels.get("endpoint", "")] = metric.value
        for labels, metric in self._registry.series_for("repro_http_errors_total"):
            errors[labels.get("endpoint", "")] = metric.value
        for labels, metric in self._registry.series_for("repro_http_request_duration_ms"):
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
            "snapshots_written": self._registry.counter(
                "repro_snapshots_written_total"
            ).value,
            "registry": {**self._registry.to_dict(), **get_registry().to_dict()},
        }

    def _op_count(self, op: str) -> float:
        return self._registry.counter("repro_arcs_applied_total", op=op).value
