"""Python client for the detection daemon's JSON API.

Pure stdlib (:mod:`http.client`); one :class:`ServiceClient` per daemon
base URL.  The client holds a persistent keep-alive connection — the
daemon's :class:`~http.server.ThreadingHTTPServer` speaks HTTP/1.1, so
reusing one socket avoids a TCP handshake per request, which dominates
latency for small JSON bodies.  If the daemon closed the idle socket
between calls (restart, keep-alive timeout), the client transparently
reopens it and retries the request once.

The client speaks the versioned ``/v1`` API natively (it never relies on
the daemon's 308 compatibility redirects).  Non-2xx responses raise
:class:`~repro.errors.ServiceClientError` carrying the HTTP status and
the daemon's ``error`` message; a 429 additionally carries the parsed
``Retry-After`` header as ``exc.retry_after`` so callers can back off
precisely instead of guessing.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Iterator
from typing import Any
from urllib.parse import quote, urlencode, urlsplit

from repro.errors import ServiceClientError

__all__ = ["ServiceClient"]

# Socket-level failures that mean "the daemon dropped our idle keep-alive
# connection" — safe to reopen and retry exactly once.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceClient:
    """Thin typed wrapper over the daemon's HTTP endpoints.

    Thread-safe: a lock serializes use of the underlying keep-alive
    connection, so one client instance can be shared across threads
    (they will contend for the socket; use one client per thread for
    parallel load).
    """

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        self._base = base_url.rstrip("/")
        parsed = urlsplit(self._base)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceClientError(f"unsupported base URL: {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._prefix = parsed.path.rstrip("/")
        self._timeout = timeout
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_arc(self, seller: str, buyer: str) -> dict[str, Any]:
        """Add a trading arc; returns the verdict payload."""
        return self._request(
            "POST", "/v1/arcs", body={"op": "add", "seller": seller, "buyer": buyer}
        )

    def remove_arc(self, seller: str, buyer: str) -> dict[str, Any]:
        """Retract a trading arc; returns the verdict payload."""
        return self._request(
            "POST", "/v1/arcs", body={"op": "remove", "seller": seller, "buyer": buyer}
        )

    def batch_arcs(
        self, ops: list[tuple[str, str, str]] | list[dict[str, str]]
    ) -> dict[str, Any]:
        """Bulk-apply arc mutations in one round trip via NDJSON.

        ``ops`` is a list of ``(op, seller, buyer)`` tuples or
        ``{"op", "seller", "buyer"}`` dicts.  Returns the daemon's batch
        report: accepted/rejected counts plus a per-line verdict list.
        """
        lines: list[str] = []
        for entry in ops:
            if isinstance(entry, dict):
                record = {
                    "op": entry["op"],
                    "seller": entry["seller"],
                    "buyer": entry["buyer"],
                }
            else:
                op, seller, buyer = entry
                record = {"op": op, "seller": seller, "buyer": buyer}
            lines.append(json.dumps(record, separators=(",", ":")))
        payload = "\n".join(lines) + "\n" if lines else ""
        return self._request(
            "POST",
            "/v1/arcs:batch",
            raw_body=payload.encode("utf-8"),
            content_type="application/x-ndjson",
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def arc(self, seller: str, buyer: str) -> dict[str, Any]:
        return self._request(
            "GET", f"/v1/arcs/{quote(seller, safe='')}/{quote(buyer, safe='')}"
        )

    def result(self, *, detector: str | None = None) -> dict[str, Any]:
        """The detection result's summary (its counts; :meth:`groups`
        walks the groups); a ``detector`` name selects one portfolio
        detector's findings payload instead."""
        if detector is None:
            return self._request("GET", "/v1/result")
        return self._request(
            "GET", f"/v1/result?detector={quote(detector, safe='')}"
        )

    def groups_page(
        self, cursor: str | None = None, *, limit: int | None = None
    ) -> dict[str, Any]:
        """One ``GET /v1/groups`` page: ``groups`` and the ``next`` cursor
        (``None`` after the last page); the daemon picks the default
        ``limit``."""
        params = {"cursor": cursor, "limit": limit}
        query = urlencode({k: v for k, v in params.items() if v is not None})
        return self._request("GET", "/v1/groups" + (f"?{query}" if query else ""))

    def groups(self, *, limit: int | None = None) -> Iterator[dict[str, Any]]:
        """Every group of the live result, page by page (``limit`` each).

        Writes between two pages never make the walk repeat or skip a
        group of an arc that stays live.
        """
        cursor: str | None = None
        while True:
            page = self.groups_page(cursor, limit=limit)
            yield from page["groups"]
            cursor = page["next"]
            if cursor is None:
                return

    def detectors(self) -> dict[str, Any]:
        """The registered detector listing (name, version, config schema)."""
        return self._request("GET", "/v1/detectors")

    def investigate(self, company: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/investigate/{quote(company, safe='')}")

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def trace(self, subtpiin: int) -> dict[str, Any]:
        """Recent mutation span trees touching one subTPIIN index."""
        return self._request("GET", f"/v1/trace/{int(subtpiin)}")

    def wait_until_healthy(self, *, attempts: int = 50, delay: float = 0.1) -> dict[str, Any]:
        """Poll ``/v1/healthz`` until the daemon answers (e.g. right after boot)."""
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except ServiceClientError as exc:
                if exc.status:  # daemon answered, just unhappy — do not retry
                    raise
                last_error = exc
            time.sleep(delay)
        raise ServiceClientError(
            f"daemon at {self._base} did not become healthy "
            f"after {attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        """Drop the keep-alive connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        body: dict[str, Any] | None = None,
        raw_body: bytes | None = None,
        content_type: str = "application/json",
    ) -> dict[str, Any]:
        url = self._base + path
        data = raw_body
        if data is None and body is not None:
            data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": content_type} if data is not None else {}
        with self._lock:
            try:
                status, retry_after, raw = self._exchange(method, path, data, headers)
            except _STALE_SOCKET_ERRORS:
                # The daemon dropped our idle socket; reconnect and retry
                # once on a fresh connection.
                self._drop_connection_locked()
                try:
                    status, retry_after, raw = self._exchange(
                        method, path, data, headers
                    )
                except OSError as exc:
                    self._drop_connection_locked()
                    raise ServiceClientError(
                        f"{method} {url} unreachable: {exc}"
                    ) from exc
            except OSError as exc:
                self._drop_connection_locked()
                raise ServiceClientError(f"{method} {url} unreachable: {exc}") from exc
        payload = self._decode(raw, status=status, url=url)
        if status >= 400:
            message = payload.get("error", f"HTTP {status}")
            raise ServiceClientError(
                f"{method} {url} failed: {message}",
                status=status,
                retry_after=retry_after,
            )
        return payload

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict[str, str]
    ) -> tuple[int, float | None, bytes]:
        conn = self._connection_locked()
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
        except (BrokenPipeError, ConnectionResetError):
            # The daemon may have answered before the body was all sent
            # (a 413 for one over its cap) and hung up: read that answer
            # rather than send the body again.  A socket that is merely
            # stale has none, and getresponse() raises as send did.
            pass
        response = conn.getresponse()
        raw = response.read()  # fully drain so the socket is reusable
        retry_after: float | None = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        if response.will_close:
            self._drop_connection_locked()
        return response.status, retry_after, raw

    def _connection_locked(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    def _drop_connection_locked(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @staticmethod
    def _decode(raw: bytes, *, status: int, url: str) -> dict[str, Any]:
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceClientError(
                f"{url} returned invalid JSON (HTTP {status}): {exc}", status=status
            ) from exc
        if not isinstance(payload, dict):
            raise ServiceClientError(
                f"{url} returned a non-object JSON payload (HTTP {status})",
                status=status,
            )
        return payload
