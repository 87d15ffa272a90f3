"""Request-scoped telemetry plumbing for the serve daemon.

Three pieces, all dependency-light so the rest of ``repro.obs`` can
import this module without cycles:

* **request context** — a :class:`RequestContext` carried in a
  :mod:`contextvars` variable.  The tracer tags every span/instant
  emitted while a context is active with its ``request_id`` (and
  appends the span to the context), and the counter registry notes
  per-request counter deltas.  ``use_context`` re-establishes a
  context on another thread (the single-flight planner pool), so one
  request id follows the work wherever it executes.
* **tracez** — a thread-safe ring buffer of recent / slow / error
  request exemplars (span trees + counter deltas), served live by
  ``GET /debug/tracez``.
* **statusz** — a self-contained HTML ops page built from a service
  status snapshot, served by ``GET /statusz``.

Nothing here influences planning: contexts only *record*.  The serve
bit-identity contract (equal fingerprints => equal plans, work
counters included) is pinned by tests with and without telemetry.
"""

from __future__ import annotations

import contextvars
import html
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "RequestContext",
    "TraceBuffer",
    "build_exemplar",
    "build_span_tree",
    "current_context",
    "current_request_id",
    "new_request_id",
    "render_statusz",
    "request_context",
    "use_context",
]

SLOW_REQUEST_MS = 250.0
_JSON_SCALARS = (str, int, float, bool, type(None))


def new_request_id() -> str:
    """A fresh 16-hex-char request id (no global state, no clock)."""
    return os.urandom(8).hex()


class RequestContext:
    """Everything recorded on behalf of one request.

    Spans and counter deltas arrive from multiple threads (the HTTP
    handler plus the planner-pool thread it coalesced onto), so all
    mutation is lock-protected; readers take snapshot copies.
    """

    __slots__ = (
        "request_id",
        "endpoint",
        "started_unix",
        "queue_wait_s",
        "_spans",
        "_counters",
        "_lock",
    )

    def __init__(self, request_id: str, endpoint: str = "request"):
        self.request_id = str(request_id)
        self.endpoint = endpoint
        self.started_unix = time.time()
        self.queue_wait_s: Optional[float] = None
        self._spans: List[Dict[str, Any]] = []
        self._counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    def note_span(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._spans.append(event)

    def note_counter(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def span_tree(self) -> List[Dict[str, Any]]:
        return build_span_tree(self.spans())


_CURRENT: "contextvars.ContextVar[Optional[RequestContext]]" = (
    contextvars.ContextVar("ktiler_request_context", default=None)
)


def current_context() -> Optional[RequestContext]:
    return _CURRENT.get()


def current_request_id() -> Optional[str]:
    ctx = _CURRENT.get()
    return None if ctx is None else ctx.request_id


class use_context:
    """Activate ``ctx`` (possibly ``None``) for the dynamic extent.

    Used by the service on the handler thread, and re-entered by the
    planner pool when it runs the leader's job.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[RequestContext]):
        self._ctx = ctx
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[RequestContext]:
        self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


def request_context(
    request_id: Optional[str] = None, endpoint: str = "request"
) -> use_context:
    """``with request_context() as ctx:`` — fresh context, fresh id."""
    return use_context(RequestContext(request_id or new_request_id(), endpoint))


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------

def _scrub(value: Any) -> Any:
    return value if isinstance(value, _JSON_SCALARS) else str(value)


def build_span_tree(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest recorded spans by time containment.

    Spans recorded for one request come from cooperating threads whose
    intervals nest (the ``serve.request`` span brackets the planner
    job), so sorting by start time and keeping a stack of open
    intervals reconstructs the tree.  Instants become zero-duration
    leaves.
    """
    spans = [e for e in events if e.get("ph") in ("X", "i")]
    spans.sort(
        key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0)))
    )
    roots: List[Dict[str, Any]] = []
    stack: List[Tuple[float, Dict[str, Any]]] = []
    for event in spans:
        start = float(event.get("ts", 0.0))
        duration = float(event.get("dur", 0.0))
        args = {
            key: _scrub(value)
            for key, value in (event.get("args") or {}).items()
            if key != "request_id"
        }
        node: Dict[str, Any] = {
            "name": event.get("name", "?"),
            "start_us": round(start, 1),
            "dur_us": round(duration, 1),
            "args": args,
            "children": [],
        }
        while stack and start >= stack[-1][0] - 1e-9:
            stack.pop()
        (stack[-1][1]["children"] if stack else roots).append(node)
        stack.append((start + duration, node))
    return roots


# ----------------------------------------------------------------------
# Tracez ring buffer
# ----------------------------------------------------------------------

def build_exemplar(ctx: RequestContext, record: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON-safe tracez exemplar: the structured-log record plus the
    request's span tree and counter deltas."""
    exemplar = dict(record)
    exemplar["spans"] = ctx.span_tree()
    exemplar["counters"] = {
        name: round(value, 6) for name, value in sorted(ctx.counters().items())
    }
    return exemplar


class TraceBuffer:
    """Fixed-capacity ring buffers of request exemplars.

    ``recent`` keeps the last N requests; ``slow`` those at or above
    the slow threshold; ``errors`` timeouts and failures.  Snapshots
    list newest first.
    """

    def __init__(self, capacity: int = 64, slow_ms: float = SLOW_REQUEST_MS):
        if capacity < 1:
            raise ValueError("tracez capacity must be >= 1")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms)
        self._recent: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._slow: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._errors: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, exemplar: Dict[str, Any]) -> None:
        with self._lock:
            self._recorded += 1
            self._recent.append(exemplar)
            if float(exemplar.get("elapsed_ms", 0.0)) >= self.slow_ms:
                self._slow.append(exemplar)
            if exemplar.get("outcome") in ("timeout", "error"):
                self._errors.append(exemplar)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "slow_ms": self.slow_ms,
                "recorded": self._recorded,
                "recent": list(reversed(self._recent)),
                "slow": list(reversed(self._slow)),
                "errors": list(reversed(self._errors)),
            }


# ----------------------------------------------------------------------
# statusz rendering
# ----------------------------------------------------------------------

def _heat_strip(buckets: List[Dict[str, Any]]) -> str:
    """A row of cells, one per occupied-range bucket, shaded by count."""
    if not buckets:
        return "<p class='note'>no samples yet</p>"
    peak = max(int(b["count"]) for b in buckets) or 1
    cells = []
    for bucket in buckets:
        count = int(bucket["count"])
        alpha = 0.08 + 0.92 * (count / peak) if count else 0.04
        title = html.escape(f"le {bucket['le']} s: {count}")
        cells.append(
            f"<span class='heat' title='{title}' "
            f"style='background:rgba(31,119,180,{alpha:.3f})'></span>"
        )
    return "<div class='heatstrip'>" + "".join(cells) + "</div>"


_STATUSZ_STYLE = """
  .heatstrip { display: flex; gap: 1px; margin: 0.3em 0; }
  .heat { display: inline-block; width: 14px; height: 18px;
          border-radius: 2px; border: 1px solid #e3e7ee; }
  .kv { display: grid; grid-template-columns: max-content 1fr;
        gap: 0.15em 1.2em; }
  .kv dt { color: #5b6472; } .kv dd { margin: 0; font-variant-numeric:
        tabular-nums; }
"""


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return html.escape(str(value))


def _kv_block(pairs: List[Tuple[str, Any]]) -> str:
    rows = "".join(
        f"<dt>{html.escape(str(k))}</dt><dd>{_fmt(v)}</dd>" for k, v in pairs
    )
    return f"<dl class='kv'>{rows}</dl>"


def _exemplar_rows(exemplars: List[Dict[str, Any]], limit: int = 8) -> str:
    rows = []
    for ex in exemplars[:limit]:
        error = ex.get("error") or {}
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(str(ex.get('request_id', '?')))}</code></td>"
            f"<td>{html.escape(str(ex.get('endpoint', '?')))}</td>"
            f"<td>{html.escape(str(ex.get('outcome', '?')))}</td>"
            f"<td>{_fmt(ex.get('status', ''))}</td>"
            f"<td>{_fmt(ex.get('elapsed_ms', ''))}</td>"
            f"<td>{html.escape(str(error.get('code', '')))}</td>"
            "</tr>"
        )
    if not rows:
        return "<p class='note'>none</p>"
    return (
        "<table><thead><tr><th>request id</th><th>endpoint</th>"
        "<th>outcome</th><th>status</th><th>ms</th><th>error</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def render_statusz(status: Dict[str, Any]) -> str:
    """Self-contained HTML ops page from a service status snapshot.

    ``status`` is the dict built by ``PlanService.status_snapshot()``;
    rendering is read-only and must never raise on missing keys.
    """
    from repro.obs.pages import page  # shared look, lazy import

    counters = status.get("counters", {})
    summary = _kv_block(
        [
            ("uptime", f"{float(status.get('uptime_s', 0.0)):.1f} s"),
            ("pid", status.get("pid", "?")),
            ("requests", counters.get("requests", 0)),
            ("rps", round(float(status.get("rps", 0.0)), 3)),
            ("inflight", status.get("inflight", 0)),
            ("planned", counters.get("plans", 0)),
            ("memo hits", counters.get("memo_hits", 0)),
            ("coalesced", counters.get("coalesced", 0)),
            ("errors", counters.get("errors", 0)),
            ("memo entries", status.get("memo_entries", 0)),
            ("memo hit rate", f"{float(status.get('memo_hit_rate', 0.0)):.1%}"),
            ("store", status.get("store") or "(none)"),
        ]
    )
    defaults = status.get("defaults") or {}
    defaults_html = _kv_block(sorted(defaults.items())) if defaults else ""

    latency_sections = []
    for endpoint, snap in sorted((status.get("latency") or {}).items()):
        quantiles = snap.get("quantiles") or {}
        q_text = "  ".join(
            f"{name}={1e3 * float(value):.2f} ms"
            for name, value in sorted(quantiles.items())
        )
        latency_sections.append(
            f"<h3>{html.escape(endpoint)} "
            f"<small>({snap.get('count', 0)} samples)</small></h3>"
            + _heat_strip(snap.get("buckets") or [])
            + (f"<p class='note'>{html.escape(q_text)}</p>" if q_text else "")
        )
    tracez = status.get("tracez") or {}
    body = f"""<h1>ktiler statusz</h1>
<p class="note">live ops snapshot; request-scoped telemetry at
<code>/debug/tracez</code>, counters at <code>/debug/vars</code>,
Prometheus at <code>/metrics</code>.</p>
<h2>Daemon</h2>
{summary}
{f"<h2>Defaults</h2>{defaults_html}" if defaults_html else ""}
<h2>Latency</h2>
{"".join(latency_sections) or "<p class='note'>no requests yet</p>"}
<h2>Last errors</h2>
{_exemplar_rows(tracez.get("errors") or [])}
<h2>Slow requests (&ge; {_fmt(tracez.get("slow_ms", SLOW_REQUEST_MS))} ms)</h2>
{_exemplar_rows(tracez.get("slow") or [])}
"""
    return page("ktiler statusz", body, css=_STATUSZ_STYLE)
