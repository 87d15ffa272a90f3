"""Minimal stdlib client of the tiling service.

Used by ``ktiler client``, the benchmark's serve workloads, and the
black-box test suite — all of which deliberately go through real HTTP
rather than calling :class:`~repro.serve.service.PlanService` directly,
so the wire format itself is what gets exercised.

Connections are kept alive: each thread that uses a client gets its
own ``http.client.HTTPConnection`` and reuses it for every request, so
one client can be shared by many threads; :meth:`ServeClient.close`
closes them all.  When the daemon has closed an idle connection (its
idle timeout, or a ``Connection: close`` response) the next request
reconnects; a request that finds a reused connection dead is retried
once on a fresh one.  Plan and explain are pure functions of the
request, so the retry is safe.

Request ids: pass ``request_id=`` per call (or a default at
construction) and the client sends it as ``X-Request-Id``; the daemon
echoes the id on every response (header and, for plan/explain, the
JSON body), and :attr:`ServeClient.last_request_id` records whatever
came back — including ids the daemon minted when none was supplied.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
import weakref
from typing import Any, Dict, Optional, Tuple

#: Kept in sync with :data:`repro.serve.wire.REQUEST_ID_HEADER`; the
#: literal is repeated here so the client stays stdlib-light (wire.py
#: pulls in the whole planning stack).
REQUEST_ID_HEADER = "X-Request-Id"


class ServeClientError(Exception):
    """A non-2xx response, carrying the structured error body."""

    def __init__(self, status: int, body: Any, request_id: Optional[str] = None):
        self.status = status
        self.body = body
        self.request_id = request_id
        error = body.get("error", {}) if isinstance(body, dict) else {}
        self.code = error.get("code", "unknown")
        message = error.get("message", str(body))
        super().__init__(f"HTTP {status} [{self.code}]: {message}")


class ServeClient:
    """Blocking JSON client for one daemon URL, one connection per thread."""

    def __init__(
        self,
        url: str,
        timeout_s: float = 600.0,
        request_id: Optional[str] = None,
    ):
        self.url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.url)
        self._host = parts.hostname
        self._port = parts.port
        self._path_prefix = parts.path
        self.timeout_s = timeout_s
        self.request_id = request_id
        self.last_request_id: Optional[str] = None
        self._local = threading.local()
        # Every thread's connection, for close(); a connection leaves
        # the set when its thread ends.
        self._lock = threading.Lock()
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = (
            weakref.WeakSet()
        )

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection, and whether it has an open socket
        from an earlier request."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            self._local.conn = conn
            with self._lock:
                self._connections.add(conn)
        return conn, conn.sock is not None

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, Any, bytes]:
        """One request/response on this thread's connection:
        ``(status, headers, body)``."""
        conn, reused = self._connection()
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                # The daemon closed a connection we kept; only a reused
                # one earns the retry, a fresh one failing is real.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            return response.status, response.headers, response.read()
        except BaseException:
            # Never leave a half-used connection for the next request.
            conn.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ):
        data = None
        headers = {"Accept": "application/json"}
        rid = request_id if request_id is not None else self.request_id
        if rid:
            headers[REQUEST_ID_HEADER] = rid
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, response_headers, raw = self._exchange(
            method, self._path_prefix + path, data, headers
        )
        echoed = response_headers.get(REQUEST_ID_HEADER)
        self.last_request_id = echoed
        if not 200 <= status < 300:
            text = raw.decode("utf-8", errors="replace")
            try:
                parsed = json.loads(text)
            except ValueError:
                parsed = {"error": {"code": "non_json", "message": text}}
            raise ServeClientError(status, parsed, request_id=echoed)
        body = raw.decode("utf-8")
        if response_headers.get("Content-Type", "").startswith("application/json"):
            return json.loads(body)
        return body

    def plan(
        self,
        request: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self._request("POST", "/v1/plan", request or {}, request_id)

    def explain(
        self,
        request: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self._request("POST", "/v1/explain", request or {}, request_id)

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    def statusz(self) -> str:
        """The HTML ops page (returned as text)."""
        return self._request("GET", "/statusz")

    def debug_vars(self) -> Dict[str, Any]:
        return self._request("GET", "/debug/vars")

    def debug_tracez(self) -> Dict[str, Any]:
        return self._request("GET", "/debug/tracez")
