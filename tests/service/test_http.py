"""In-process HTTP round-trips: server routing + client error mapping."""

import contextlib
import errno
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Engine, detect
from repro.detectors import run_detectors
from repro.errors import ServiceClientError
from repro.io import results_io
from repro.io.results_io import _header, group_to_dict
from repro.mining import groups as groups_module
from repro.mining.detector import DetectionResult
from repro.mining.groups import SuspiciousGroup
from repro.mining.incremental import IncrementalDetector
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.server import DetectionHTTPServer
from repro.service.sharding import ShardedDetectionService


@contextlib.contextmanager
def running_daemon(tpiin, state_dir):
    """A live daemon on an ephemeral port: yields ``(client, service)``."""
    config = ServiceConfig(state_dir=state_dir, port=0)
    service = ShardedDetectionService.open(tpiin, config)
    server = DetectionHTTPServer((config.host, config.port), service)
    thread = threading.Thread(target=server.serve_forever, name="test-daemon")
    thread.start()
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        yield client, service
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        service.close()


@pytest.fixture()
def served_fig8(fig8, tmp_path):
    """A live daemon over Fig. 8, plus its client."""
    with running_daemon(fig8, tmp_path / "state") as served:
        yield served


class TestQueries:
    def test_healthz(self, served_fig8):
        client, _ = served_fig8
        health = client.wait_until_healthy()
        assert health["status"] == "ok"
        assert health["error"] is None
        assert health["arcs"] == 5

    def test_result_matches_batch(self, served_fig8, fig8):
        client, _ = served_fig8
        batch = detect(fig8, engine=Engine.FAITHFUL)
        result = client.result()
        assert result["engine"] == "incremental"
        assert result["group_count"] == len(batch.groups)
        assert result["simple_group_count"] == batch.simple_group_count
        assert result["suspicious_arc_count"] == len(batch.suspicious_trading_arcs)
        groups = list(client.groups())
        assert sorted(json.dumps(g, sort_keys=True) for g in groups) == sorted(
            json.dumps(group_to_dict(g), sort_keys=True) for g in batch.groups
        )
        assert {tuple(g["trading_trail"][-2:]) for g in groups} == {
            (str(a), str(b)) for a, b in batch.suspicious_trading_arcs
        }

    def test_result_is_a_summary(self, served_fig8):
        client, service = served_fig8
        body = urllib.request.urlopen(f"{client._base}/v1/result", timeout=5.0).read()
        assert len(body) <= 2048
        summary = json.loads(body)
        assert list(summary) == [key for key, _ in _header(service.result())] + [
            "group_count",
            "suspicious_arc_count",
        ]

    def test_summary_touches_no_group(self, served_fig8, monkeypatch):
        client, service = served_fig8
        expected = client.result()

        def refuse(*args, **kwargs):
            raise AssertionError("a summary read touched a group")

        monkeypatch.setattr(groups_module, "trails_are_simple", refuse)
        monkeypatch.setattr(results_io, "trails_are_simple", refuse)
        monkeypatch.setattr(DetectionResult, "simple_group_count", property(refuse))
        monkeypatch.setattr(SuspiciousGroup, "__iter__", refuse)
        monkeypatch.setattr(SuspiciousGroup, "is_simple", property(refuse))
        monkeypatch.setattr(IncrementalDetector, "result", refuse)
        monkeypatch.setattr(IncrementalDetector, "_fused", refuse)
        assert client.result() == expected

    def test_get_arc(self, served_fig8):
        client, _ = served_fig8
        payload = client.arc("C3", "C5")
        assert payload["present"] and payload["suspicious"]
        assert payload["groups"][0]["trading_trail"] == ["L1", "C1", "C3", "C5"]
        absent = client.arc("C1", "C2")
        assert not absent["present"]

    def test_investigate(self, served_fig8):
        client, _ = served_fig8
        payload = client.investigate("C5")
        assert payload["company"] == "C5"
        assert payload["group_count"] >= 1

    def test_metrics_counts_requests(self, served_fig8):
        client, _ = served_fig8
        client.healthz()
        client.result()
        metrics = client.metrics()
        assert metrics["requests"]["healthz"] >= 1
        assert metrics["requests"]["result"] >= 1
        assert metrics["latency_ms"]["result"]["count"] >= 1
        assert metrics["arcs_tracked"] == 5
        assert metrics["queue_depth"] == 0

    def test_metrics_reports_cache_hits_on_rework(self, served_fig8):
        client, _ = served_fig8
        # The first rework warms the cache the batch seed left cold.
        for _ in range(2):
            client.remove_arc("C3", "C5")
            client.add_arc("C3", "C5")
        metrics = client.metrics()
        assert metrics["path_cache"]["hits"] >= 1


class TestMutations:
    def test_add_and_remove_roundtrip(self, served_fig8):
        client, _ = served_fig8
        removed = client.remove_arc("C3", "C5")
        assert removed["applied"] and removed["group_count"] == 1
        readded = client.add_arc("C3", "C5")
        assert readded["applied"] and readded["suspicious"]
        assert readded["groups"][0]["support_trail"] == ["L1", "C2", "C5"]

    def test_duplicate_add_reports_unapplied(self, served_fig8):
        client, _ = served_fig8
        payload = client.add_arc("C3", "C5")
        assert not payload["applied"]
        assert payload["suspicious"]

    def test_mutations_hit_the_wal(self, served_fig8):
        from repro.service.wal import read_wal

        client, service = served_fig8
        client.add_arc("C8", "C3")
        records = read_wal(service._config.shard_wal_path(0)).records
        assert [(r.op, r.seller, r.buyer) for r in records] == [("add", "C8", "C3")]


class TestDetectorsAPI:
    def test_listing_names_the_portfolio(self, served_fig8):
        client, _ = served_fig8
        listing = client.detectors()["detectors"]
        assert [entry["name"] for entry in listing] == [
            "circular-trading",
            "iat-groups",
            "missing-trader",
            "shared-household",
        ]
        circular = listing[0]
        assert circular["version"] == "1.0.0"
        assert "min_balance" in circular["config"]

    def test_result_carries_detector_identity(self, served_fig8):
        client, _ = served_fig8
        result = client.result()
        assert result["detector"] == "iat-groups"
        assert result["detector_version"] == "1.0.0"

    def test_result_for_one_detector(self, served_fig8):
        client, _ = served_fig8
        payload = client.result(detector="iat-groups")
        assert payload["detector"] == "iat-groups"
        assert payload["finding_count"] == len(payload["findings"]) == 3
        assert payload["next"] is None
        arcs = {tuple(f["members"]) for f in payload["findings"]}
        assert ("C3", "C5") in arcs
        for entry in payload["findings"]:
            assert entry["member_count"] == len(entry["members"]) == 2
            assert entry["arc_count"] == len(entry["arcs"]) == 1
            assert len(entry["id"]) == 16
        rings = client.result(detector="circular-trading")
        assert rings["detector"] == "circular-trading"
        assert rings["findings"] == []
        assert rings["finding_count"] == 0 and rings["next"] is None

    def test_findings_walk_joins_cut_findings(self, served_fig8, fig8):
        client, _ = served_fig8
        batch = run_detectors(fig8, ["iat-groups"])["iat-groups"].to_dict()
        first = client.findings_page("iat-groups", limit=2)
        # Two of the first finding's three items: it is cut there.
        assert [len(e["members"]) + len(e["arcs"]) for e in first["findings"]] == [2]
        assert first["next"] is not None
        second = client.findings_page("iat-groups", first["next"], limit=2)
        assert second["findings"][0]["id"] == first["findings"][0]["id"]
        assert second["findings"][0]["arcs"] and not second["findings"][0]["members"]
        walked = list(client.findings("iat-groups", limit=1))
        assert [{k: v for k, v in f.items() if k != "id"} for f in walked] == batch[
            "findings"
        ]
        assert walked == list(client.findings("iat-groups"))

    def test_detector_findings_track_mutations(self, served_fig8):
        client, _ = served_fig8
        before = list(client.findings("iat-groups", limit=2))
        client.remove_arc("C3", "C5")
        after = list(client.findings("iat-groups", limit=2))
        assert len(after) == len(before) - 1
        assert [f for f in before if f["members"] != ["C3", "C5"]] == after
        client.add_arc("C3", "C5")

    def test_unknown_detector_is_400(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client.result(detector="nope")
        assert err.value.status == 400
        assert "choices" in str(err.value)

    @pytest.mark.parametrize(
        "query", ["detector=", "detector=iat-groups&detector=circular-trading"]
    )
    def test_blank_or_repeated_detector_is_400(self, served_fig8, query):
        client, _ = served_fig8
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{client._base}/v1/result?{query}", timeout=5.0)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert "choices: circular-trading, iat-groups" in error

    def test_findings_reads_have_their_own_endpoint(self, served_fig8):
        client, service = served_fig8
        client.result()
        client.result(detector="circular-trading")
        with pytest.raises(ServiceClientError):
            client.result(detector="nope")
        # Counted after its response is sent: this fences the counts.
        client.healthz()
        samples = prometheus_samples(service.metrics.render_prometheus())
        assert samples['repro_http_requests_total{endpoint="result"}'] == 1
        assert samples['repro_http_requests_total{endpoint="findings"}'] == 2
        assert samples['repro_http_errors_total{endpoint="findings"}'] == 1
        assert 'repro_http_errors_total{endpoint="result"}' not in samples
        by_status = "repro_http_request_duration_by_status_ms_count"
        assert samples[f'{by_status}{{endpoint="findings",status_class="2xx"}}'] == 1
        assert samples[f'{by_status}{{endpoint="findings",status_class="4xx"}}'] == 1
        assert client.metrics()["latency_ms"]["findings"]["count"] == 2

    @pytest.mark.parametrize(
        "query",
        [
            "cursor=%21%21",
            "cursor=WzFd",
            "limit=0",
            "limit=5001",
            "limit=x",
            "cursor=&cursor=",
            "limit=1&limit=2",
        ],
    )
    def test_bad_findings_page_query_is_400(self, served_fig8, query):
        client, _ = served_fig8
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{client._base}/v1/result?detector=iat-groups&{query}", timeout=5.0
            )
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]

    def test_findings_cursor_from_another_detector_is_400(self, served_fig8):
        client, _ = served_fig8
        token = client.findings_page("iat-groups", limit=1)["next"]
        with pytest.raises(ServiceClientError) as err:
            client.findings_page("circular-trading", token)
        assert err.value.status == 400


def raw_exchange(client, request: bytes) -> tuple[bytes, bytes, float]:
    """Send ``request`` on a fresh socket and read until the daemon
    closes it: ``(status line and headers, body, seconds taken)``."""
    host, port = client._base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        started = time.monotonic()
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body, time.monotonic() - started


class TestGroupsAPI:
    @pytest.mark.parametrize("limit", [1, 2, None])
    def test_pages_walk_every_group_once(self, served_fig8, limit):
        client, service = served_fig8
        walked = [json.dumps(g, sort_keys=True) for g in client.groups(limit=limit)]
        assert sorted(walked) == sorted(
            json.dumps(group_to_dict(g), sort_keys=True) for g in service.result().groups
        )
        arcs = [tuple(json.loads(g)["trading_trail"][-2:]) for g in walked]
        assert arcs == sorted(arcs)

    def test_last_page_has_no_next(self, served_fig8):
        client, _ = served_fig8
        first = client.groups_page(limit=2)
        assert len(first["groups"]) == 2 and first["next"] is not None
        second = client.groups_page(first["next"], limit=2)
        assert len(second["groups"]) == 1 and second["next"] is None
        assert len(client.groups_page()["groups"]) == 3  # default limit

    def test_a_removed_arc_drops_out_of_the_walk(self, served_fig8):
        client, _ = served_fig8
        first = client.groups_page(limit=1)
        assert first["groups"][0]["trading_trail"][-2:] == ["C3", "C5"]
        client.remove_arc("C5", "C6")
        rest = client.groups_page(first["next"], limit=5)["groups"]
        assert [g["trading_trail"][-2:] for g in rest] == [["C7", "C8"]]
        client.add_arc("C5", "C6")

    @pytest.mark.parametrize(
        "query",
        [
            "cursor=!!!",
            "cursor=" + server_module._encode_cursor(("C3", "C5", -1)),
            "cursor=" + server_module._encode_cursor(("C3", "C5", 2)),
            "cursor=WyJDMyIsIkM1Il0",  # ["C3","C5"]: no offset
            "limit=0",
            "limit=5001",
            "limit=ten",
            "limit=" + "9" * 5000,
            "limit=1&limit=2",
            "cursor=a&cursor=b",
        ],
    )
    def test_bad_cursor_or_limit_is_400(self, served_fig8, query):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client._request("GET", f"/v1/groups?{query}")
        assert err.value.status == 400

    def test_cursor_round_trips(self):
        cursor = ("C\u00e9", 'a"b', 7)
        token = server_module._encode_cursor(cursor)
        assert "=" not in token and token.isascii()
        assert server_module._decode_cursor(token) == cursor


class TestBodyCaps:
    @pytest.mark.parametrize("route", ["/v1/arcs", "/v1/arcs:batch"])
    def test_body_over_the_cap_is_413_unread(self, served_fig8, route):
        client, _ = served_fig8
        length = server_module._MAX_BODY_BYTES + 1
        head, body, seconds = raw_exchange(
            client,
            f"POST {route} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        # Answered with no body sent, not after the 1 s idle timeout,
        # and the connection closed.
        assert seconds < 0.9
        assert head.startswith(b"HTTP/1.1 413 ")
        assert "cap" in json.loads(body)["error"]

    @pytest.mark.parametrize("discarded", [True, False])
    def test_client_sees_413_for_an_oversized_body(self, served_fig8, monkeypatch, discarded):
        client, service = served_fig8
        if not discarded:
            # The daemon closes on the unread body: the client's send
            # fails, and it reads the answer already on the socket.
            monkeypatch.setattr(server_module, "_DISCARD_MAX_BYTES", 0)
        raw = b" " * (24 * server_module._MAX_BODY_BYTES)
        for route in ("/v1/arcs", "/v1/arcs:batch"):
            with pytest.raises(ServiceClientError) as err:
                client._request("POST", route, raw_body=raw)
            assert err.value.status == 413
            assert "cap" in str(err.value)
        assert client.healthz()["status"] == "ok"
        # Refused once, not sent again on a fresh connection.
        client.healthz()
        requests = service.metrics.to_dict()["requests"]
        assert requests["post_arcs"] == requests["post_arcs_batch"] == 1

    def test_plain_http_client_reads_the_413(self, served_fig8):
        client, _ = served_fig8
        request = urllib.request.Request(
            f"{client._base}/v1/arcs",
            data=b" " * (24 * server_module._MAX_BODY_BYTES),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5.0)
        assert err.value.code == 413
        assert err.value.headers["Connection"] == "close"

    def test_body_at_the_cap_is_read(self, served_fig8):
        client, _ = served_fig8
        record = {"op": "add", "seller": "C1", "buyer": "C6", "pad": ""}
        padding = server_module._MAX_BODY_BYTES - len(json.dumps(record).encode())
        record["pad"] = "x" * padding
        raw = json.dumps(record).encode()
        assert len(raw) == server_module._MAX_BODY_BYTES
        verdict = client._request("POST", "/v1/arcs", raw_body=raw)
        assert verdict["applied"]

    def test_batch_line_cap(self, served_fig8):
        client, _ = served_fig8
        cap = server_module._MAX_BATCH_LINES
        line = b'{"op": "noop"}\n'  # rejected per line: nothing applies
        report = client._request("POST", "/v1/arcs:batch", raw_body=line * cap)
        assert report["lines"] == report["rejected"] == cap
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/v1/arcs:batch", raw_body=line * (cap + 1))
        assert err.value.status == 413
        assert "line" in str(err.value)
        assert client.healthz()["status"] == "ok"


class TestErrorMapping:
    def test_unknown_endpoint_is_400(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client.add_arc("C3", "NOPE")
        assert err.value.status == 400
        assert "unknown" in str(err.value)

    def test_unknown_company_is_400(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client.investigate("NOPE")
        assert err.value.status == 400

    def test_unknown_route_is_404(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_bad_body_is_400(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/v1/arcs", body={"op": "merge", "seller": "a", "buyer": "b"})
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/v1/arcs", body={"op": "add", "seller": 3, "buyer": "b"})
        assert err.value.status == 400

    @pytest.mark.parametrize("route", ["/v1/arcs", "/v1/arcs:batch"])
    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, served_fig8, route, length):
        client, _ = served_fig8
        head, body, seconds = raw_exchange(
            client,
            f"POST {route} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        # Answered at once, not after the server's 1 s idle timeout, and
        # the connection closed: where the body ends is unknown.
        assert seconds < 0.9
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]

    def test_unreachable_daemon_has_status_zero(self, tmp_path):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(ServiceClientError) as err:
            client.healthz()
        assert err.value.status == 0


class TestVersionedAPI:
    @staticmethod
    def _raw_get(client, path):
        """GET without following redirects; returns (status, headers, body)."""

        class _NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None

        opener = urllib.request.build_opener(_NoRedirect)
        try:
            with opener.open(client._base + path, timeout=5.0) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def test_bare_path_redirects_to_v1(self, served_fig8):
        client, _ = served_fig8
        status, headers, _ = self._raw_get(client, "/healthz")
        assert status == 308
        assert headers["Location"] == "/v1/healthz"

    def test_redirect_preserves_query_string(self, served_fig8):
        client, _ = served_fig8
        status, headers, _ = self._raw_get(client, "/metrics?format=prometheus")
        assert status == 308
        assert headers["Location"] == "/v1/metrics?format=prometheus"

    def test_prometheus_exposition(self, served_fig8):
        client, _ = served_fig8
        # The second request on the keep-alive connection is handled
        # only after the first was recorded.
        client.healthz()
        client.healthz()
        status, headers, body = self._raw_get(client, "/v1/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE repro_http_requests_total counter" in text
        assert "repro_service_uptime_seconds" in text

    def test_trace_endpoint_records_mutations(self, served_fig8):
        client, _ = served_fig8
        client.remove_arc("C3", "C5")
        client.add_arc("C3", "C5")
        payload = client.trace(0)
        assert payload["subtpiin"] == 0
        assert payload["tracing_enabled"] is True
        assert len(payload["traces"]) == 2
        entry = payload["traces"][-1]
        assert entry["op"] == "add"
        assert entry["arc"] == ["C3", "C5"]
        trace = entry["trace"]
        assert trace["name"] == "mutation"
        children = [child["name"] for child in trace["children"]]
        assert children == ["apply", "wal_append"]

    def test_single_arc_trace_survives_a_batch(self, served_fig8):
        client, _ = served_fig8
        client.remove_arc("C3", "C5")
        # 100 lines on the same subTPIIN: more than the 64-entry ring.
        client.batch_arcs([("add", "C1", "C6"), ("remove", "C1", "C6")] * 50)
        traces = client.trace(0)["traces"]
        assert [(t["op"], t["arc"]) for t in traces] == [("remove", ["C3", "C5"])]

    def test_trace_endpoint_rejects_out_of_range(self, served_fig8):
        client, _ = served_fig8
        with pytest.raises(ServiceClientError) as err:
            client.trace(99)
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client._request("GET", "/v1/trace/zero")
        assert err.value.status == 400


def fail_next_wal_sync(monkeypatch, service):
    """Make the next WAL fsync fail with EIO (later ones succeed)."""
    wal = service._wal
    real_sync = wal.sync
    calls = []

    def sync():
        calls.append(None)
        if len(calls) == 1:
            raise OSError(errno.EIO, "injected fsync failure")
        real_sync()

    monkeypatch.setattr(wal, "sync", sync)


def raw_healthz(client):
    try:
        with urllib.request.urlopen(client._base + "/v1/healthz", timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestCommitFailure:
    """A failed WAL fsync poisons the shard: nothing is acknowledged after
    it, every write gets a typed error, and health reports the shard."""

    def test_batch_fsync_failure_is_per_line_and_poisons(self, served_fig8, monkeypatch):
        client, service = served_fig8
        fail_next_wal_sync(monkeypatch, service)
        report = client.batch_arcs([("add", "C1", "C6")])
        assert report["rejected"] == 1
        assert "commit failed" in report["results"][0]["error"]
        again = client.batch_arcs([("add", "C2", "C6")])
        assert again["accepted"] == 0 and again["rejected"] == 1
        with pytest.raises(ServiceClientError) as err:
            client.add_arc("C8", "C3")
        assert err.value.status == 503
        assert not client.arc("C2", "C6")["present"]
        assert not client.arc("C8", "C3")["present"]

    def test_healthz_reports_a_poisoned_shard(self, served_fig8, monkeypatch):
        client, service = served_fig8
        assert raw_healthz(client)[0] == 200
        fail_next_wal_sync(monkeypatch, service)
        with pytest.raises(ServiceClientError) as err:
            client.add_arc("C8", "C3")
        assert err.value.status == 503
        status, health = raw_healthz(client)
        assert status == 503
        assert health["status"] == "failed"
        assert "injected fsync failure" in health["error"]


def prometheus_samples(text):
    """``{series: value}`` of a Prometheus text exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


class TestPerDaemonMetrics:
    def test_two_daemons_count_only_their_own_requests(self, fig8, tmp_path):
        with running_daemon(fig8, tmp_path / "a") as (client_a, service_a):
            with running_daemon(fig8, tmp_path / "b") as (client_b, service_b):
                for _ in range(3):
                    client_a.healthz()
                client_b.healthz()
                client_b.remove_arc("C3", "C5")
                client_b.add_arc("C3", "C5")
                # A keep-alive connection handles a request only after the
                # previous one on it was recorded: these fence the counts.
                client_a.metrics()
                client_b.metrics()
                texts = [
                    service.metrics.render_prometheus()
                    for service in (service_a, service_b)
                ]
        samples_a, samples_b = map(prometheus_samples, texts)
        healthz = 'repro_http_requests_total{endpoint="healthz"}'
        post = 'repro_http_requests_total{endpoint="post_arcs"}'
        assert samples_a[healthz] == 3
        assert post not in samples_a
        assert samples_b[healthz] == 1
        assert samples_b[post] == 2
        for text in texts:
            types = [
                line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")
            ]
            assert len(types) == len(set(types))
        assert "repro_path_cache_hits_total" in samples_b
