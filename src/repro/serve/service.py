"""The tiling service: fingerprint → plan, deduplicated three ways.

:class:`PlanService` sits between the HTTP layer (``server.py``) and
the KTILER pipeline.  A request is first mapped to its fingerprint
through the **front memo** (canonical request echo → fingerprint), so
a repeat never rebuilds or rehashes the kernel graph.  Three caches
then answer it, cheapest first:

1. **memo** — completed results by fingerprint, in-process, held as
   encoded JSON bytes;
2. **single-flight** — concurrent requests for the same fingerprint
   coalesce onto one in-flight planning job (one ``Future``) instead
   of planning N times;
3. **artifact store** — the plan lands under its fingerprint (which IS
   the store key, see :func:`repro.serve.wire.plan_fingerprint`), so a
   restarted daemon — or an offline ``ktiler`` run with the same
   ``--cache-dir`` — reuses it without replanning.

All of this is safe precisely because plans are bit-identical by
contract: any two requests with equal fingerprints would compute
byte-equal schedules, so sharing one result is indistinguishable from
planning twice.  The memo therefore holds only what the fingerprint
determines; the per-request fields (``request``, ``served``,
``elapsed_ms``, ``request_id``) are spliced onto those bytes for each
response.  The black-box suite (``tests/test_serve.py``) holds the
daemon to that.

Per-request work is traced (``serve.request`` / ``serve.plan`` spans)
and counted (``serve.*`` families, exported at ``GET /metrics``).  A
request that outlives its timeout gets a structured 504 but the job
keeps running and lands in the memo — a retry is served warm.

Every request additionally runs under a request context
(:mod:`repro.obs.ops`): its id — client-supplied ``X-Request-Id`` or
minted — tags every span/counter the request touches, including work
done on the planner pool's threads.  On completion the
service records a ``serve.latency`` histogram sample (per
endpoint/outcome), emits one structured JSON log line
(:mod:`repro.obs.slog`), and files an exemplar (span tree + counter
deltas) into the ``/debug/tracez`` ring.  All of this is *recording
only*: the telemetry layer never feeds back into planning, so plans
and their work counters stay bit-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.ops import (
    SLOW_REQUEST_MS,
    RequestContext,
    TraceBuffer,
    build_exemplar,
    new_request_id,
    render_statusz,
    use_context,
)
from repro.obs.slog import SlogWriter, make_record
from repro.obs.tracer import Tracer
from repro.serve.wire import (
    PlanRequest,
    WireError,
    parse_plan_request,
    plan_digest,
    plan_fingerprint,
)
from repro.store.fingerprint import canonical_json
from repro.store.store import NULL_STORE

#: Memoized results (and memoized fingerprints) kept per daemon (LRU
#: beyond this).
DEFAULT_MEMO_ENTRIES = 1024

#: Ceiling on any single request's planning wait, seconds.
DEFAULT_TIMEOUT_S = 300.0

#: Largest request body the HTTP layer will read, bytes.
DEFAULT_MAX_BODY_BYTES = 1024 * 1024

#: Request exemplars kept in each tracez ring.
DEFAULT_TRACEZ_CAPACITY = 64

#: How the response's ``served`` field maps onto outcome tags.
_OUTCOME_BY_SERVED = {
    "planned": "ok",
    "memo": "memo_hit",
    "coalesced": "coalesced",
}


class _Lru:
    """A bounded least-recently-used map; callers hold the service lock."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Any:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def _splice(encoded: bytes, fields: Dict[str, Any]) -> bytes:
    """The JSON object ``encoded`` with ``fields`` appended as its last
    keys: exactly ``json.dumps`` of the merged dict."""
    tail = json.dumps(fields).encode("utf-8")
    return b"".join((encoded[:-1], b", ", tail[1:]))


class PlanService:
    """Thread-safe plan/explain engine behind the HTTP daemon."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        store=NULL_STORE,
        planner_backend: Optional[str] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        planner_threads: int = 4,
        max_memo_entries: int = DEFAULT_MEMO_ENTRIES,
        slog: Optional[SlogWriter] = None,
        tracez_capacity: int = DEFAULT_TRACEZ_CAPACITY,
        slow_ms: float = SLOW_REQUEST_MS,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.store = store
        # A daemon's /metrics should cover store traffic: adopt a store
        # constructed without its own tracer into ours.
        if getattr(store, "enabled", False) and not store.tracer.enabled:
            store.tracer = self.tracer
        self.timeout_s = timeout_s
        self.max_body_bytes = max_body_bytes
        self.defaults = {"planner_backend": planner_backend}
        self._lock = threading.Lock()
        # Encoded results by memo key, and fingerprints by canonical
        # request echo; both LRU.
        self._memo = _Lru(max_memo_entries)
        self._fingerprints = _Lru(max_memo_entries)
        self._inflight: Dict[str, Any] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=planner_threads, thread_name_prefix="ktiler-plan"
        )
        self._started = time.time()
        self._monotonic = time.perf_counter
        self._slog = slog
        self.tracez = TraceBuffer(capacity=tracez_capacity, slow_ms=slow_ms)

    # -- counters ----------------------------------------------------

    def _count(self, name: str, value: float = 1, **labels) -> None:
        with self._lock:
            self.tracer.metrics.inc(f"serve.{name}", value, **labels)

    # -- front memo --------------------------------------------------

    def _fingerprint(self, request: PlanRequest) -> str:
        """The request's fingerprint, from the front memo when an equal
        echo was seen before (no graph build, no hashing)."""
        echo_key = canonical_json(request.echo)
        with self._lock:
            fingerprint = self._fingerprints.get(echo_key)
        if fingerprint is None:
            fingerprint = plan_fingerprint(request, self.store.key_for)
            with self._lock:
                self._fingerprints.put(echo_key, fingerprint)
        return fingerprint

    # -- single flight -----------------------------------------------

    def _single_flight(
        self,
        key: str,
        job: Callable[[], Dict[str, Any]],
        timeout_s: float,
        ctx: Optional[RequestContext] = None,
    ) -> Tuple[bytes, str]:
        """Return (encoded result, served), served ∈ planned/memo/coalesced.

        The leader thread for a key runs ``job`` on the planner pool;
        every other thread arriving before it completes waits on the
        same future.  Timeouts abandon the wait, never the job.  The
        leader's request context rides along to the pool thread, so
        planning spans and counters are tagged with the request id
        that actually triggered the work.
        """
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self.tracer.metrics.inc("serve.memo_hits")
                return cached, "memo"
            future = self._inflight.get(key)
            if future is not None:
                served = "coalesced"
                self.tracer.metrics.inc("serve.coalesced")
            else:
                served = "planned"
                future = self._pool.submit(
                    self._run_job, key, job, self._monotonic(), ctx
                )
                self._inflight[key] = future
        try:
            result = future.result(timeout=timeout_s)
        except FutureTimeout:
            raise WireError(
                "timeout",
                f"request exceeded {timeout_s:g}s; the planning job "
                "continues and a retry will be served warm",
                status=504,
            )
        return result, served

    def _run_job(
        self,
        key: str,
        job: Callable[[], Dict[str, Any]],
        submitted_at: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
    ) -> bytes:
        with use_context(ctx):
            if submitted_at is not None:
                wait_s = max(0.0, self._monotonic() - submitted_at)
                if ctx is not None:
                    ctx.queue_wait_s = wait_s
                with self._lock:
                    self.tracer.metrics.observe("serve.queue_wait", wait_s)
            try:
                result = json.dumps(job()).encode("utf-8")
                with self._lock:
                    self._memo.put(key, result)
                return result
            finally:
                # Memo (on success) is published before the in-flight
                # entry disappears, so late arrivals always see one or
                # the other.
                with self._lock:
                    self._inflight.pop(key, None)

    # -- endpoints ---------------------------------------------------

    def plan(self, payload: Any, request_id: Optional[str] = None) -> bytes:
        """Serve ``POST /v1/plan``: a tiled schedule for the request, as
        the encoded JSON response body."""
        return self._serve("plan", payload, request_id)

    def explain(self, payload: Any, request_id: Optional[str] = None) -> bytes:
        """Serve ``POST /v1/explain``: the audit report for the request,
        as the encoded JSON response body."""
        return self._serve("explain", payload, request_id)

    def _serve(
        self, endpoint: str, payload: Any, request_id: Optional[str] = None
    ) -> bytes:
        t0 = self._monotonic()
        ctx = RequestContext(request_id or new_request_id(), endpoint)
        fingerprint: Optional[str] = None
        preset: Optional[str] = None
        with use_context(ctx):
            try:
                request = parse_plan_request(
                    payload,
                    default_planner_backend=self.defaults["planner_backend"],
                )
                preset = request.preset
                fingerprint = self._fingerprint(request)
                timeout_s = self.timeout_s
                if request.timeout_s is not None:
                    timeout_s = min(request.timeout_s, self.timeout_s)
                # The measure and ledger flags change the response payload
                # (not the plan), so those variants memoize apart; so does
                # the preset name an audit carries (two presets can build
                # one graph).
                key = f"{endpoint}:{fingerprint}"
                if endpoint == "plan" and request.measure:
                    key += ":measured"
                if endpoint == "plan" and request.ledger:
                    key += ":ledger"
                if endpoint == "explain":
                    key += f":{request.preset}"
                if endpoint == "plan":
                    job = lambda: self._plan_job(request, fingerprint)
                else:
                    job = lambda: self._explain_job(request, fingerprint)
                with self.tracer.span(
                    "serve.request",
                    cat="serve",
                    endpoint=endpoint,
                    fingerprint=fingerprint[:12],
                    preset=request.preset,
                ):
                    try:
                        result, served = self._single_flight(
                            key, job, timeout_s, ctx
                        )
                    except ConfigurationError as exc:
                        # The body parsed, but its device cannot run its
                        # app (a block wider than max_threads_per_block).
                        raise WireError(
                            "bad_value", f"invalid request: {exc}"
                        ) from exc
            except WireError as exc:
                elapsed_ms = round((self._monotonic() - t0) * 1000.0, 3)
                self._count(
                    "requests", endpoint=endpoint, status=str(exc.status)
                )
                self._count("errors", code=exc.code)
                self._finish_request(
                    ctx,
                    outcome="timeout" if exc.code == "timeout" else "error",
                    status=exc.status,
                    elapsed_ms=elapsed_ms,
                    fingerprint=fingerprint,
                    preset=preset,
                    error={"code": exc.code, "message": exc.message},
                )
                raise
            except Exception as exc:
                elapsed_ms = round((self._monotonic() - t0) * 1000.0, 3)
                self._count("requests", endpoint=endpoint, status="500")
                self._count("errors", code="internal")
                self._finish_request(
                    ctx,
                    outcome="error",
                    status=500,
                    elapsed_ms=elapsed_ms,
                    fingerprint=fingerprint,
                    preset=preset,
                    error={"code": "internal", "message": str(exc)},
                )
                raise
            elapsed_ms = round((self._monotonic() - t0) * 1000.0, 3)
            self._count("requests", endpoint=endpoint, status="200")
            self._finish_request(
                ctx,
                outcome=_OUTCOME_BY_SERVED.get(served, "ok"),
                status=200,
                elapsed_ms=elapsed_ms,
                fingerprint=fingerprint,
                preset=preset,
                served=served,
            )
        return _splice(
            result,
            {
                "request": request.echo,
                "served": served,
                "elapsed_ms": elapsed_ms,
                "request_id": ctx.request_id,
            },
        )

    def _finish_request(
        self,
        ctx: RequestContext,
        outcome: str,
        status: int,
        elapsed_ms: float,
        fingerprint: Optional[str] = None,
        preset: Optional[str] = None,
        served: Optional[str] = None,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record histogram + structured log + tracez exemplar.

        Telemetry is best-effort by design: a recording failure counts
        ``serve.telemetry_errors`` and never fails the request.  The
        histogram observes ``elapsed_ms / 1000`` — the *same* rounded
        value the response carries — so client-visible latencies and
        ``/metrics`` bucket counts agree exactly.
        """
        from repro.obs.bench import phase_breakdown

        try:
            with self._lock:
                self.tracer.metrics.observe(
                    "serve.latency",
                    elapsed_ms / 1000.0,
                    endpoint=ctx.endpoint,
                    outcome=outcome,
                )
            phases_ms = {
                phase: seconds * 1000.0
                for phase, seconds in phase_breakdown(ctx.spans()).items()
                if seconds > 0
            }
            queue_wait_ms = (
                None
                if ctx.queue_wait_s is None
                else round(ctx.queue_wait_s * 1000.0, 3)
            )
            record = make_record(
                request_id=ctx.request_id,
                endpoint=ctx.endpoint,
                outcome=outcome,
                status=status,
                elapsed_ms=elapsed_ms,
                ts_unix=ctx.started_unix,
                fingerprint=fingerprint,
                preset=preset,
                served=served,
                queue_wait_ms=queue_wait_ms,
                phases_ms=phases_ms,
                error=error,
            )
            if self._slog is not None:
                self._slog.emit(record)
            self.tracez.record(build_exemplar(ctx, record))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._count("telemetry_errors")

    # -- jobs --------------------------------------------------------

    def _make_ktiler(self, request: PlanRequest):
        from repro.core.ktiler import KTiler

        return KTiler(
            request.graph,
            spec=request.spec,
            config=request.config,
            tracer=self.tracer,
            store=self.store,
            planner_backend=request.planner_backend,
        )

    def _plan_job(self, request: PlanRequest, fingerprint: str) -> Dict[str, Any]:
        from repro.core.serialize import schedule_to_dict

        with self.tracer.span(
            "serve.plan",
            cat="serve",
            fingerprint=fingerprint[:12],
            preset=request.preset,
        ):
            plan = self._make_ktiler(request).plan(request.freq)
            result = {
                "kind": "plan",
                "fingerprint": fingerprint,
                "plan_digest": plan_digest(plan.schedule, request.graph),
                "schedule": schedule_to_dict(plan.schedule, request.graph),
                "estimated_cost_us": plan.estimated_cost_us,
                "stats": asdict(plan.stats),
            }
            if request.measure:
                result["timing"] = self._timing(request, plan)
            if request.ledger:
                # The ledger block is a valid ledger document (the
                # extra digest/summary keys are tolerated by
                # validate_ledger), so diff_ledgers consumes it as-is.
                result["ledger"] = {
                    **plan.ledger.as_dict(),
                    "digest": plan.ledger.digest(),
                    "summary": plan.ledger.summary(),
                }
        self._count("plans")
        return result

    def _timing(self, request: PlanRequest, plan) -> Dict[str, Any]:
        from repro.runtime.launcher import measure_at, tally_schedule
        from repro.runtime.streams import measure_with_streams

        tallies = tally_schedule(
            plan.schedule,
            request.graph,
            request.spec,
            tracer=self.tracer,
        )
        blocking = measure_at(tallies, request.spec, request.freq)
        streamed = measure_with_streams(tallies, request.spec, request.freq)
        return {
            "blocking": {
                "schedule_name": blocking.schedule_name,
                "num_launches": blocking.num_launches,
                "total_us": blocking.total_us,
                "busy_us": blocking.busy_us,
                "hit_rate": blocking.hit_rate,
            },
            "streamed": streamed.as_dict(),
        }

    def _explain_job(self, request: PlanRequest, fingerprint: str) -> Dict[str, Any]:
        from repro.obs.audit import audit_schedule

        with self.tracer.span(
            "serve.explain",
            cat="serve",
            fingerprint=fingerprint[:12],
            preset=request.preset,
        ):
            audit = audit_schedule(
                self._make_ktiler(request), freq=request.freq, tracer=self.tracer
            )
            result = {
                "kind": "explain",
                "fingerprint": fingerprint,
                "audit": audit.to_json_dict(preset=request.preset),
            }
        self._count("plans")
        return result

    # -- introspection -----------------------------------------------

    def health(self) -> Dict[str, Any]:
        self._count("requests", endpoint="healthz", status="200")
        with self._lock:
            inflight = len(self._inflight)
            memo = len(self._memo)
            totals = {
                name: self.tracer.metrics.total(name)
                for name in ("serve.requests", "serve.plans", "serve.coalesced",
                             "serve.memo_hits", "serve.errors")
            }
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "inflight": inflight,
            "memo_entries": memo,
            "counters": totals,
            "store": (
                str(self.store.root)
                if getattr(self.store, "root", None) is not None
                else None
            ),
            "defaults": dict(self.defaults),
        }

    def metrics_text(self) -> str:
        from repro.obs.report import metrics_to_prometheus

        self._count("requests", endpoint="metrics", status="200")
        with self._lock:
            self.tracer.metrics.set_gauge("serve.inflight", len(self._inflight))
            self.tracer.metrics.set_gauge("serve.memo_entries", len(self._memo))
            self.tracer.metrics.set_gauge(
                "serve.uptime_s", round(time.time() - self._started, 3)
            )
            return metrics_to_prometheus(self.tracer.metrics)

    def note_http_error(self, code: str, status: int) -> None:
        """Count an error the HTTP layer rejected before dispatch
        (unknown path, missing/oversized body, malformed JSON)."""
        self._count("requests", endpoint="http", status=str(status))
        self._count("errors", code=code)

    # -- live ops endpoints ------------------------------------------

    def debug_vars(self) -> Dict[str, Any]:
        """``GET /debug/vars``: JSON counters + histogram snapshots."""
        from repro.obs.report import metrics_to_json

        self._count("requests", endpoint="debug_vars", status="200")
        with self._lock:
            inflight = len(self._inflight)
            memo = len(self._memo)
            metrics = metrics_to_json(self.tracer.metrics)
        return {
            "pid": os.getpid(),
            "started_unix": round(self._started, 3),
            "uptime_s": round(time.time() - self._started, 3),
            "inflight": inflight,
            "memo_entries": memo,
            "defaults": dict(self.defaults),
            "metrics": metrics,
        }

    def debug_tracez(self) -> Dict[str, Any]:
        """``GET /debug/tracez``: recent / slow / error exemplars."""
        self._count("requests", endpoint="debug_tracez", status="200")
        return self.tracez.snapshot()

    def status_snapshot(self) -> Dict[str, Any]:
        """The raw material of the statusz page (also handy in tests)."""
        metrics = self.tracer.metrics
        with self._lock:
            inflight = len(self._inflight)
            memo = len(self._memo)
            totals = {
                name[len("serve."):]: metrics.total(name)
                for name in ("serve.requests", "serve.plans",
                             "serve.coalesced", "serve.memo_hits",
                             "serve.errors")
            }
            latency = {}
            for endpoint in ("plan", "explain"):
                merged = metrics.merged_histogram(
                    "serve.latency", endpoint=endpoint
                )
                if merged is not None and merged.count:
                    latency[endpoint] = merged.snapshot()
        uptime_s = max(time.time() - self._started, 1e-9)
        answered = totals["plans"] + totals["memo_hits"] + totals["coalesced"]
        return {
            "pid": os.getpid(),
            "uptime_s": uptime_s,
            "rps": totals["requests"] / uptime_s,
            "inflight": inflight,
            "memo_entries": memo,
            "memo_hit_rate": (
                totals["memo_hits"] / answered if answered else 0.0
            ),
            "counters": totals,
            "defaults": dict(self.defaults),
            "store": (
                str(self.store.root)
                if getattr(self.store, "root", None) is not None
                else None
            ),
            "latency": latency,
            "tracez": self.tracez.snapshot(),
        }

    def statusz_html(self) -> str:
        """``GET /statusz``: the self-contained HTML ops page."""
        self._count("requests", endpoint="statusz", status="200")
        return render_statusz(self.status_snapshot())

    def close(self) -> None:
        self._pool.shutdown(wait=False)
