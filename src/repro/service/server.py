"""Stdlib-only JSON transport for :class:`ShardedDetectionService`.

One :class:`~http.server.ThreadingHTTPServer` per daemon.  The API is
versioned under ``/v1``; bare legacy paths answer with a ``308
Permanent Redirect`` to their ``/v1`` twin so old clients keep working
(``POST`` bodies survive a 308, unlike a 301/302).  Endpoints:

=========================================  =====================================
``POST /v1/arcs``                          apply ``{"op", "seller", "buyer"}``
``POST /v1/arcs:batch``                    NDJSON bulk ingest, per-line verdicts
``GET  /v1/arcs/{seller}/{buyer}``         status of one trading arc
``GET  /v1/result``                        detection result summary (counts only)
``GET  /v1/result?detector={name}``        one portfolio detector's findings
``GET  /v1/groups?cursor=&limit=``         one page of the result's groups
``GET  /v1/detectors``                     registered detector listing
``GET  /v1/investigate/{company}``         drill-down briefing for a company
``GET  /v1/healthz``                       liveness + recovery summary (503 if not ok)
``GET  /v1/metrics``                       counters, latency histograms, caches
``GET  /v1/metrics?format=prometheus``     Prometheus text exposition
``GET  /v1/trace/{subtpiin}``              recent mutation span trees
=========================================  =====================================

Every response is bounded: the result is a fixed-size summary and its
groups come a page at a time; request bodies are capped, and a body
over the cap answers ``413`` without being buffered.

Concurrency is bounded by the service's ingest queue and lock: HTTP
worker threads carry requests concurrently, but mutations serialize at
the state layer, never in the transport.  The server keeps
``daemon_threads = False`` so ``server_close()`` joins in-flight workers
— a SIGTERM drains cleanly instead of tearing mid-response.
"""

from __future__ import annotations

import base64
import json
import logging
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, cast
from urllib.parse import parse_qs, unquote

from repro.detectors.registry import DETECTORS
from repro.errors import BackpressureError, MiningError, ServiceError
from repro.io.registry_io import parse_arc_ndjson
from repro.io.results_io import group_to_dict, summary_to_dict
from repro.mining.incremental import ArcUpdate, PageCursor
from repro.service.sharding import ShardedDetectionService
from repro.service.wal import OP_ADD, OP_REMOVE

__all__ = ["DetectionHTTPServer", "serve"]

_logger = logging.getLogger("repro.service")

#: First path segments that existed before the API was versioned; bare
#: requests to these answer 308 with the ``/v1`` location.
_BARE_ROUTES = frozenset(
    {"arcs", "healthz", "investigate", "metrics", "result", "trace"}
)

#: Largest ``POST`` body read, in bytes; a longer ``Content-Length``
#: answers 413 and closes the connection with the body unread.
_MAX_BODY_BYTES = 1 << 20
#: Most lines one ``POST /v1/arcs:batch`` body may hold (413 above).
_MAX_BATCH_LINES = 10_000
#: After answering 413 to a body it did not read, the server half-closes
#: and throws away up to this much of the body, for at most this long,
#: before it closes: a close with unread input resets the connection,
#: which can cost a client still sending the body its answer.
_DISCARD_MAX_BYTES = 64 << 20
_DISCARD_SECONDS = 1.0
#: Groups per ``GET /v1/groups`` page when ``limit`` is not given, and
#: the largest ``limit`` accepted.
_PAGE_LIMIT_DEFAULT = 500
_PAGE_LIMIT_MAX = 5_000

#: ``(endpoint, status, json-payload, text-payload, redirect-location)`` —
#: exactly one of the last three is non-None.
_Routed = tuple[str, int, "dict[str, Any] | None", "str | None", "str | None"]


def _update_to_dict(update: ArcUpdate) -> dict[str, Any]:
    seller, buyer = update.arc
    return {
        "arc": [str(seller), str(buyer)],
        "applied": update.applied,
        "suspicious": update.suspicious,
        "group_count": update.group_count,
        "groups": [group_to_dict(g) for g in update.groups],
    }


class _PayloadTooLarge(Exception):
    """A request body over one of the caps: answered with a 413."""


def _encode_cursor(cursor: PageCursor) -> str:
    """The opaque ``next`` token of a groups page (unpadded base64url JSON)."""
    raw = json.dumps(cursor, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def _decode_cursor(token: str) -> PageCursor:
    """Invert :func:`_encode_cursor`; anything else is a :class:`MiningError`."""
    try:
        seller, buyer, offset = json.loads(
            base64.urlsafe_b64decode(token + "=" * (-len(token) % 4))
        )
    except (ValueError, TypeError):
        raise MiningError(f"malformed cursor {token!r}") from None
    if not (
        isinstance(seller, str)
        and isinstance(buyer, str)
        and type(offset) is int
        and offset >= 0
    ):
        raise MiningError(f"malformed cursor {token!r}")
    return seller, buyer, offset


def _page_limit(text: str) -> int:
    """The ``limit`` query value: blank or absent is the default."""
    if not text:
        return _PAGE_LIMIT_DEFAULT
    # The length check keeps int() off strings of thousands of digits.
    if text.isascii() and text.isdigit() and len(text) <= len(str(_PAGE_LIMIT_MAX)):
        if 1 <= int(text) <= _PAGE_LIMIT_MAX:
            return int(text)
    raise MiningError(f"limit must be an integer from 1 to {_PAGE_LIMIT_MAX}, got {text!r}")


class DetectionHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server that owns a :class:`ShardedDetectionService`."""

    # Track and join worker threads on server_close(): a drained
    # shutdown must finish in-flight responses, not abandon them.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self, address: tuple[str, int], service: ShardedDetectionService
    ) -> None:
        super().__init__(address, _DetectionRequestHandler)
        self.service = service


class _DetectionRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's service."""

    server_version = "repro-tpiin-service/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate send() calls; without
    # TCP_NODELAY, Nagle + the peer's delayed ACK serializes them into
    # a ~40 ms stall per keep-alive request.
    disable_nagle_algorithm = True
    # Keep-alive idle timeout: with block_on_close, a handler thread
    # parked on an idle persistent connection would stall
    # server_close() forever.  Reaping after a quiet second keeps drain
    # bounded; clients transparently reconnect (stale-socket retry).
    timeout = 1.0
    # Bytes of a refused body left on the socket, discarded by finish().
    _unread_body = 0

    @property
    def service(self) -> ShardedDetectionService:
        return cast(DetectionHTTPServer, self.server).service

    def finish(self) -> None:
        super().finish()
        if self._unread_body:
            self._discard_unread_body()

    def _discard_unread_body(self) -> None:
        """Half-close, then read and drop the refused body (bounded by
        ``_DISCARD_MAX_BYTES`` and ``_DISCARD_SECONDS``), so the client
        finishes sending and reads the 413 instead of a reset."""
        sock = self.connection
        left = min(self._unread_body, _DISCARD_MAX_BYTES)
        deadline = time.monotonic() + _DISCARD_SECONDS
        try:
            sock.shutdown(socket.SHUT_WR)
            while left > 0 and (wait := deadline - time.monotonic()) > 0:
                sock.settimeout(wait)
                chunk = sock.recv(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:
            pass  # the client hung up or went quiet: close anyway

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        # Routes update the hint once the path is recognized, so error
        # responses still land on the right metrics series.
        self._endpoint_hint = "unknown"
        status = 500
        text: str | None = None
        location: str | None = None
        retry_after: float | None = None
        try:
            endpoint, status, payload, text, location = self._route(method)
        except MiningError as exc:
            endpoint = self._endpoint_hint
            status, payload = 400, {"error": str(exc)}
        except _PayloadTooLarge as exc:
            endpoint = self._endpoint_hint
            status, payload = 413, {"error": str(exc)}
        except BackpressureError as exc:
            # Admission control shed the request; tell the client when
            # to retry.  Checked before ServiceError — it subclasses it.
            endpoint = self._endpoint_hint
            status, payload = 429, {"error": str(exc)}
            retry_after = exc.retry_after
        except ServiceError as exc:
            endpoint = self._endpoint_hint
            status, payload = 503, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            _logger.exception("unhandled error serving %s %s", method, self.path)
            endpoint = self._endpoint_hint
            status, payload = 500, {"error": f"internal error: {exc}"}
        if location is not None:
            self._send_redirect(status, location)
        elif text is not None:
            self._send_text(status, text)
        else:
            headers: dict[str, str] = {}
            if retry_after is not None:
                headers["Retry-After"] = f"{retry_after:g}"
            if self._unread_body:
                headers["Connection"] = "close"
            self._send_json(
                status, payload if payload is not None else {}, extra_headers=headers
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.service.metrics.observe_request(endpoint, status, elapsed_ms)

    def _route(self, method: str) -> _Routed:
        path, _, query = self.path.partition("?")
        parts = [unquote(p) for p in path.split("/") if p]
        if parts and parts[0] == "v1":
            return self._route_v1(method, parts[1:], query)
        if parts and parts[0] in _BARE_ROUTES:
            # Pre-versioning path: point the client at the /v1 twin.  A
            # 308 preserves the method and body, so POST /arcs survives.
            target = "/v1" + path + (f"?{query}" if query else "")
            return "redirect", 308, None, None, target
        return (
            "unknown",
            404,
            {"error": f"no {method} route for {self.path!r}"},
            None,
            None,
        )

    def _route_v1(self, method: str, parts: list[str], query: str) -> _Routed:
        if method == "POST":
            if parts == ["arcs"]:
                self._endpoint_hint = "post_arcs"
                status, payload = self._handle_post_arcs()
                return "post_arcs", status, payload, None, None
            if parts == ["arcs:batch"]:
                self._endpoint_hint = "post_arcs_batch"
                status, payload = self._handle_post_batch()
                return "post_arcs_batch", status, payload, None, None
            return (
                "unknown",
                404,
                {"error": f"no POST route for {self.path!r}"},
                None,
                None,
            )
        if parts == ["healthz"]:
            self._endpoint_hint = "healthz"
            health = dict(self.service.health())
            status = 200 if health["status"] == "ok" else 503
            return "healthz", status, health, None, None
        if parts == ["metrics"]:
            self._endpoint_hint = "metrics"
            formats = parse_qs(query).get("format", [])
            if "prometheus" in formats:
                return (
                    "metrics",
                    200,
                    None,
                    self.service.metrics.render_prometheus(),
                    None,
                )
            return "metrics", 200, dict(self.service.metrics_payload()), None, None
        if parts == ["detectors"]:
            self._endpoint_hint = "detectors"
            return (
                "detectors",
                200,
                dict(self.service.detectors_payload()),
                None,
                None,
            )
        if parts == ["result"]:
            self._endpoint_hint = "result"
            # Blank values kept: ``?detector=`` names no detector, it
            # does not ask for the whole result.
            names = parse_qs(query, keep_blank_values=True).get("detector")
            if names is not None:
                # Portfolio detector requested: answer with its findings
                # payload instead of the summary.  It is counted as
                # ``findings``: it runs a detector, a summary read does not.
                self._endpoint_hint = "findings"
                if len(names) != 1:
                    raise MiningError(
                        f"give one detector, not {len(names)} "
                        f"(choices: {', '.join(DETECTORS)})"
                    )
                return (
                    "findings",
                    200,
                    dict(self.service.detector_findings(names[0])),
                    None,
                    None,
                )
            return "result", 200, summary_to_dict(self.service.summary()), None, None
        if parts == ["groups"]:
            self._endpoint_hint = "groups"
            return "groups", 200, self._groups_page(query), None, None
        if len(parts) == 3 and parts[0] == "arcs":
            self._endpoint_hint = "get_arc"
            status_view = self.service.arc_status(parts[1], parts[2])
            return (
                "get_arc",
                200,
                {
                    "arc": [status_view.seller, status_view.buyer],
                    "present": status_view.present,
                    "suspicious": status_view.suspicious,
                    "groups": [group_to_dict(g) for g in status_view.groups],
                },
                None,
                None,
            )
        if len(parts) == 2 and parts[0] == "investigate":
            self._endpoint_hint = "investigate"
            return (
                "investigate",
                200,
                dict(self.service.investigate(parts[1]).to_dict()),
                None,
                None,
            )
        if len(parts) == 2 and parts[0] == "trace":
            self._endpoint_hint = "trace"
            try:
                subtpiin = int(parts[1])
            except ValueError:
                raise MiningError(
                    f"subTPIIN index must be an integer, got {parts[1]!r}"
                ) from None
            return (
                "trace",
                200,
                dict(self.service.trace_payload(subtpiin)),
                None,
                None,
            )
        return "unknown", 404, {"error": f"no GET route for {self.path!r}"}, None, None

    def _groups_page(self, query: str) -> dict[str, Any]:
        """One ``GET /v1/groups`` page: ``{"groups": [...], "next": token}``.

        ``next`` is ``null`` after the last group; a repeated parameter,
        a malformed cursor or a limit out of range is a 400.
        """
        params = parse_qs(query, keep_blank_values=True)
        for name in ("cursor", "limit"):
            if len(params.get(name, ())) > 1:
                raise MiningError(f"give {name} at most once")
        token = params.get("cursor", [""])[0]
        limit = _page_limit(params.get("limit", [""])[0])
        after = _decode_cursor(token) if token else None
        groups, cursor = self.service.groups_page(after, limit)
        return {
            "groups": [group_to_dict(g) for g in groups],
            "next": _encode_cursor(cursor) if cursor is not None else None,
        }

    def _handle_post_arcs(self) -> tuple[int, dict[str, Any]]:
        body = self._read_json_body()
        op = body.get("op", OP_ADD)
        seller = body.get("seller")
        buyer = body.get("buyer")
        if op not in (OP_ADD, OP_REMOVE):
            return 400, {"error": f"op must be {OP_ADD!r} or {OP_REMOVE!r}, got {op!r}"}
        if not isinstance(seller, str) or not isinstance(buyer, str):
            return 400, {"error": "seller and buyer must be strings"}
        if op == OP_ADD:
            update = self.service.add_arc(seller, buyer)
        else:
            update = self.service.remove_arc(seller, buyer)
        return 200, _update_to_dict(update)

    def _handle_post_batch(self) -> tuple[int, dict[str, Any]]:
        """NDJSON bulk ingest: one arc op per line, per-line verdicts.

        Malformed lines are rejected individually (the rest of the
        batch still applies); the response reports every line by its
        0-based index so clients can retry precisely.
        """
        started = time.perf_counter()
        raw = self._read_body()
        if not raw:
            raise MiningError("request body is empty; expected NDJSON arc lines")
        line_count = raw.count(b"\n") + (not raw.endswith(b"\n"))
        if line_count > _MAX_BATCH_LINES:
            raise _PayloadTooLarge(
                f"batch of {line_count} lines exceeds the {_MAX_BATCH_LINES}-line cap"
            )
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MiningError(f"request body is not valid UTF-8: {exc}") from exc
        lines, rejects = parse_arc_ndjson(text)
        results = self.service.apply_batch(lines) if lines else []
        report = [
            {"line": reject.index, "error": reject.error} for reject in rejects
        ] + list(results)
        report.sort(key=lambda entry: cast(int, entry["line"]))
        accepted = sum(1 for entry in report if "error" not in entry)
        rejected = len(report) - accepted
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.service.metrics.observe_batch(accepted, rejected, elapsed_ms)
        return 200, {
            "lines": len(report),
            "accepted": accepted,
            "rejected": rejected,
            "results": report,
        }

    def _read_body(self) -> bytes:
        """The request body, as long as its ``Content-Length`` says.

        A missing header reads as an empty body; a value that is not a
        non-negative integer is a 400 (``rfile.read(-1)`` would block
        until the socket timeout), and one over ``_MAX_BODY_BYTES`` a
        413.  Both close the connection unread: where the body ends is
        unknown, or reading it is what the cap refuses (:meth:`finish`
        discards what the client still sends of it).
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise MiningError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._unread_body = length
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte cap"
            )
        return self.rfile.read(length) if length else b""

    def _read_json_body(self) -> dict[str, Any]:
        raw = self._read_body()
        if not raw:
            raise MiningError("request body is empty; expected a JSON object")
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MiningError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MiningError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        *,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_redirect(self, status: int, location: str) -> None:
        self.send_response(status)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format: str, *args: object) -> None:
        _logger.debug("%s - %s", self.address_string(), format % args)


def serve(
    server: DetectionHTTPServer,
    *,
    install_signal_handlers: bool = True,
) -> None:
    """Run ``server`` until SIGTERM/SIGINT, then drain and close durably.

    ``server.shutdown()`` must not be called from the signal handler's
    (main) thread while ``serve_forever`` runs on it — that deadlocks —
    so the handler hands the call to a short-lived helper thread.
    """

    def _request_shutdown(signum: int, frame: object) -> None:
        _logger.info("signal %d received; draining", signum)
        threading.Thread(target=server.shutdown, name="shutdown").start()

    previous: dict[int, Any] = {}
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _request_shutdown)
    try:
        server.serve_forever()
    finally:
        server.server_close()  # joins in-flight worker threads
        server.service.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
