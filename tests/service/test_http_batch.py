"""HTTP behaviors of the queued daemon: batch ingest, 429 admission
control, the keep-alive client, and status-class metrics."""

import threading
import time
import urllib.request

import pytest

from repro.datagen.cases import fig8_tpiin
from repro.errors import ServiceClientError
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.server import DetectionHTTPServer
from repro.service.sharding import ShardedDetectionService

FIG8 = fig8_tpiin()


def start_daemon(tmp_path, **config_kwargs):
    config = ServiceConfig(
        state_dir=tmp_path / "state", port=0, fsync=False, **config_kwargs
    )
    service = ShardedDetectionService.open(FIG8, config)
    server = DetectionHTTPServer((config.host, config.port), service)
    thread = threading.Thread(target=server.serve_forever, name="test-daemon")
    thread.start()
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}")
    return config, service, server, thread, client


def stop_daemon(server, thread, service):
    server.shutdown()
    thread.join()
    server.server_close()
    service.close()


@pytest.fixture()
def served(tmp_path):
    config, service, server, thread, client = start_daemon(tmp_path)
    try:
        yield client, service, config
    finally:
        stop_daemon(server, thread, service)


class TestBatchEndpoint:
    def test_ndjson_round_trip(self, served):
        client, service, _ = served
        report = client.batch_arcs(
            [
                ("add", "C1", "C6"),
                ("add", "C1", "C6"),  # duplicate: acknowledged, not applied
                ("remove", "C1", "C6"),
            ]
        )
        assert report["lines"] == 3
        assert report["accepted"] == 3
        assert report["rejected"] == 0
        verdicts = {entry["line"]: entry for entry in report["results"]}
        assert verdicts[0]["applied"] is True
        assert verdicts[1]["applied"] is False
        assert verdicts[2]["applied"] is True

    def test_malformed_lines_rejected_individually(self, served):
        client, service, _ = served
        raw = (
            b'{"op": "add", "seller": "C1", "buyer": "C6"}\n'
            b"garbage\n"
            b'{"op": "frobnicate", "seller": "C1", "buyer": "C6"}\n'
            b'{"op": "add", "seller": "NOPE", "buyer": "C6"}\n'
        )
        report = client._request(
            "POST",
            "/v1/arcs:batch",
            raw_body=raw,
            content_type="application/x-ndjson",
        )
        assert report["accepted"] == 1
        assert report["rejected"] == 3
        by_line = {entry["line"]: entry for entry in report["results"]}
        assert by_line[0]["applied"] is True
        assert "error" in by_line[1]
        assert "error" in by_line[2]
        assert "error" in by_line[3]
        assert service.arc_status("C1", "C6").present

    def test_empty_body_is_400(self, served):
        client, _, _ = served
        with pytest.raises(ServiceClientError) as excinfo:
            client.batch_arcs([])
        assert excinfo.value.status == 400

    def test_batch_metrics_recorded(self, served):
        client, service, _ = served
        client.batch_arcs([("add", "C1", "C6")])
        own = service.metrics._registry
        assert own.counter("repro_batch_requests_total").value == 1
        assert (
            own.counter("repro_batch_lines_total", outcome="accepted").value == 1
        )


class TestAdmissionControl:
    def test_flood_sheds_429_with_retry_after_and_loses_nothing(self, tmp_path):
        config, service, server, thread, _ = start_daemon(
            tmp_path, ingest_queue_limit=2
        )
        try:
            statuses = []
            lock = threading.Lock()

            def post_one():
                # One connection per thread: each request must block or
                # shed independently.
                client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
                try:
                    client.add_arc("C1", "C6")
                    with lock:
                        statuses.append((200, None))
                except ServiceClientError as exc:
                    with lock:
                        statuses.append((exc.status, exc.retry_after))
                finally:
                    client.close()

            with service._lock.write():
                # Park the commit thread, then flood well past the queue bound.
                threads = [
                    threading.Thread(target=post_one) for _ in range(8)
                ]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 10.0
                while True:
                    with lock:
                        shed = sum(1 for s, _ in statuses if s == 429)
                    if shed >= 1:
                        break
                    assert time.monotonic() < deadline, "no 429 observed"
                    time.sleep(0.01)
            for t in threads:
                t.join()
            assert len(statuses) == 8
            ok = [s for s, _ in statuses if s == 200]
            shed = [(s, ra) for s, ra in statuses if s == 429]
            assert ok and shed
            assert len(ok) + len(shed) == 8  # nothing deadlocked or vanished
            # Every shed response carried the daemon's Retry-After hint.
            assert all(ra == config.retry_after_seconds for _, ra in shed)
        finally:
            stop_daemon(server, thread, service)
        # WAL-replay equivalence: exactly the acknowledged state survives.
        recovered = ShardedDetectionService.open(FIG8, config)
        try:
            assert recovered.arc_status("C1", "C6").present
        finally:
            recovered.close()


class TestKeepAliveClient:
    def test_connection_is_reused(self, served):
        client, _, _ = served
        client.healthz()
        first = client._conn
        assert first is not None
        client.healthz()
        assert client._conn is first

    def test_stale_socket_reconnects_transparently(self, served):
        client, _, _ = served
        client.healthz()
        # Outlive the server's keep-alive idle timeout (1 s): the next
        # request hits a dead socket and must retry on a fresh one.
        time.sleep(1.5)
        health = client.healthz()
        assert health["status"] == "ok"

    def test_429_maps_to_client_error_with_retry_after(self, served):
        client, service, config = served
        with service._lock.write():
            done = threading.Event()
            failure = []

            def flood():
                # Fill the parked writer's queue, then trip one 429.
                flooder = ServiceClient(client._base)
                pendings = []
                try:
                    service._enqueue("add", "C1", "C6")
                    deadline = time.monotonic() + 5.0
                    while service._queue:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    for _ in range(config.ingest_queue_limit):
                        pendings.append(service._enqueue("add", "C1", "C6"))
                    try:
                        flooder.add_arc("C1", "C6")
                        failure.append("expected a 429")
                    except ServiceClientError as exc:
                        if exc.status != 429 or exc.retry_after is None:
                            failure.append(f"unexpected: {exc}")
                finally:
                    flooder.close()
                    done.set()

            thread = threading.Thread(target=flood)
            thread.start()
            assert done.wait(timeout=15.0)
        thread.join()
        assert not failure


class TestStatusClassMetrics:
    def test_latency_series_labelled_by_status_class(self, served):
        client, service, _ = served
        client.healthz()
        with pytest.raises(ServiceClientError):
            client.add_arc("NOPE", "C6")  # 400
        # The server records a request after sending its response; the
        # next request on the same keep-alive connection is handled only
        # once that recording is done.
        client.healthz()
        series = service.metrics._registry.series_for(
            "repro_http_request_duration_by_status_ms"
        )
        labels = {
            (entry.get("endpoint"), entry.get("status_class"))
            for entry, _ in series
        }
        assert ("healthz", "2xx") in labels
        assert ("post_arcs", "4xx") in labels

    def test_prometheus_exposition_includes_new_series(self, served):
        client, _, _ = served
        client.batch_arcs([("add", "C1", "C6")])
        # The batch is recorded after its response is sent; the next
        # request on the same keep-alive connection waits for that.
        client.healthz()
        url = client._base + "/v1/metrics?format=prometheus"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            text = response.read().decode("utf-8")
        assert "repro_http_request_duration_by_status_ms" in text
        assert "repro_batch_lines_total" in text
        assert "repro_ingest_queue_depth" in text
        assert "repro_ingest_queue_capacity" in text
