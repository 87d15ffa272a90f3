"""HTTP front of the tiling service (stdlib only).

``ThreadingHTTPServer`` gives one daemon thread per connection; every
handler delegates to the shared :class:`~repro.serve.service.PlanService`,
which is where thread safety lives.  This module only speaks HTTP:
method/path routing, Content-Length discipline (411 when missing, 413
when over the service's body cap — checked *before* reading), JSON
decoding (400 with a structured body), and error mapping
(:class:`~repro.serve.wire.WireError` → its status; anything else →
500 ``internal`` with the traceback on the daemon's stderr, never in
the response).  Plan and explain bodies arrive from the service already
encoded and are written as given.

Connections are HTTP/1.1 keep-alive.  ``TCP_NODELAY`` is set on each
one: the headers and the body are two writes, and with Nagle's
algorithm the second waits for the client's delayed ACK (~40 ms).  A
connection idle for :attr:`_Handler.timeout` seconds is closed, so an
abandoned client does not hold a handler thread.

Two entry points:

* :func:`start_server` — bind (ephemeral ports welcome), serve in a
  background thread, return a context-managed :class:`ServeHandle`.
  This is what the tests use.
* :func:`run_forever` — the ``ktiler serve`` main loop: SIGTERM/SIGINT
  trigger a clean shutdown (drain, close, print a summary, exit 0).
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.service import PlanService
from repro.serve.wire import (
    REQUEST_ID_HEADER,
    WireError,
    error_body,
    normalize_request_id,
)


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: PlanService
    verbose: bool = False


class _Handler(BaseHTTPRequestHandler):
    server_version = "ktiler-serve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Seconds a kept-alive connection may sit idle before it is closed.
    timeout = 60.0
    _request_id: str = ""

    @property
    def service(self) -> PlanService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            sys.stderr.write(
                "[serve] %s %s\n" % (self.address_string(), format % args)
            )

    # -- responses ---------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header(REQUEST_ID_HEADER, self._request_id)
        if self.close_connection:
            # An intentional close (411/413/unframeable body) is
            # advertised, not just performed.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reject(self, status: int, code: str, message: str) -> None:
        self.service.note_http_error(code, status)
        self._send_json(status, error_body(code, message))

    def _discard_body(self) -> None:
        """Consume a declared request body so keep-alive framing stays
        intact; close the connection when the framing is unknowable or
        the body is over the cap (reading it would be a free DoS)."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = None if raw_length is None else int(raw_length)
        except ValueError:
            length = None
        if length is None or length > self.service.max_body_bytes:
            self.close_connection = True
            return
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    # -- routing -----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._request_id = normalize_request_id(
            self.headers.get(REQUEST_ID_HEADER)
        )
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            self._send_text(
                200, self.service.metrics_text(), "text/plain; version=0.0.4"
            )
        elif self.path == "/statusz":
            self._send_text(
                200, self.service.statusz_html(), "text/html; charset=utf-8"
            )
        elif self.path == "/debug/vars":
            self._send_json(200, self.service.debug_vars())
        elif self.path == "/debug/tracez":
            self._send_json(200, self.service.debug_tracez())
        else:
            # GET has no body: keep-alive framing is intact, stay open.
            self._reject(404, "not_found", f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802
        self._request_id = normalize_request_id(
            self.headers.get(REQUEST_ID_HEADER)
        )
        if self.path not in ("/v1/plan", "/v1/explain"):
            # Drain the declared body first: an unread body would be
            # parsed as the next request line on a kept-alive socket.
            self._discard_body()
            self._reject(404, "not_found", f"no route {self.path!r}")
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            # Unknowable framing: refuse and close.
            self.close_connection = True
            self._reject(
                411, "length_required", "Content-Length is required"
            )
            return
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True
            self._reject(400, "bad_request", "invalid Content-Length")
            return
        if length > self.service.max_body_bytes:
            # Refuse before reading; the connection is closed because
            # the unread body would otherwise corrupt keep-alive.
            self.close_connection = True
            self._reject(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.service.max_body_bytes}-byte limit",
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._reject(
                400, "bad_json", f"request body is not JSON: {exc}"
            )
            return
        endpoint = self.service.plan if self.path == "/v1/plan" else self.service.explain
        try:
            body = endpoint(payload, request_id=self._request_id)
            self._send_body(200, body, "application/json")
        except WireError as exc:
            self._send_json(exc.status, exc.body())
        except BrokenPipeError:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._send_json(
                500, error_body("internal", "internal error; see daemon stderr")
            )


#: Wildcard bind addresses that are not routable as a *destination*.
_WILDCARD_HOSTS = ("0.0.0.0", "::", "0:0:0:0:0:0:0:0", "")


def advertised_host(bind_host: str) -> str:
    """The host a client should dial to reach a daemon bound to
    ``bind_host`` from this machine: wildcard binds (``0.0.0.0``,
    ``::``) accept connections on every interface but are meaningless
    as a destination, so advertise loopback for them."""
    return "127.0.0.1" if bind_host in _WILDCARD_HOSTS else bind_host


class ServeHandle:
    """A running daemon: its URL, server, thread, and service.

    ``url``/``host`` are *routable* (what a local client dials);
    ``bind_host`` preserves what the listener actually bound to.
    """

    def __init__(self, server: _ServeHTTPServer, thread: threading.Thread):
        self.server = server
        self.thread = thread
        self.service = server.service
        bind_host, port = server.server_address[:2]
        self.bind_host = bind_host
        self.port = port
        self.host = advertised_host(bind_host)
        netloc = f"[{self.host}]" if ":" in self.host else self.host
        self.url = f"http://{netloc}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_server(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServeHandle:
    """Bind and serve in a background thread; ``port=0`` is ephemeral."""
    server = _ServeHTTPServer((host, port), _Handler)
    server.service = service
    server.verbose = verbose
    thread = threading.Thread(
        target=server.serve_forever, name="ktiler-serve", daemon=True
    )
    thread.start()
    return ServeHandle(server, thread)


def run_forever(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 8750,
    verbose: bool = False,
    log=None,
) -> int:
    """The ``ktiler serve`` main loop; returns the process exit code.

    Serves until SIGTERM/SIGINT, then shuts the listener down, closes
    the service, and prints a one-line summary — the CI smoke job greps
    for it to assert a clean exit.
    """
    emit = log if log is not None else lambda msg: print(msg, file=sys.stderr)
    try:
        handle = start_server(service, host=host, port=port, verbose=verbose)
    except OSError as exc:
        emit(f"[serve] cannot bind {host}:{port}: {exc}")
        return 1
    emit(
        f"[serve] listening on {handle.url} "
        f"(bound {handle.bind_host}:{handle.port}; SIGTERM to stop)"
    )
    stop = threading.Event()
    signals = {signal.SIGTERM: "SIGTERM", signal.SIGINT: "SIGINT"}
    received = {}

    def _on_signal(signum, frame):
        received["name"] = signals.get(signum, str(signum))
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal) for signum in signals
    }
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    handle.close()
    metrics = service.tracer.metrics
    totals = {
        name: metrics.total(name)
        for name in ("serve.requests", "serve.plans", "serve.coalesced",
                     "serve.memo_hits")
    }
    emit(
        "[serve] clean shutdown on %s: %d requests, %d planned, "
        "%d coalesced, %d memo hits"
        % (
            received.get("name", "signal"),
            int(totals["serve.requests"]),
            int(totals["serve.plans"]),
            int(totals["serve.coalesced"]),
            int(totals["serve.memo_hits"]),
        )
    )
    return 0


def wait_until_ready(url: str, timeout_s: float = 10.0) -> bool:
    """Poll ``/healthz`` until the daemon answers (for scripts/tests)."""
    import time
    import urllib.request

    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=1) as resp:
                if resp.status == 200:
                    return True
        except (OSError, socket.timeout):
            time.sleep(0.05)
    return False
