"""Request-scoped telemetry: context propagation, slog, tracez, statusz.

The tentpole contract, pinned end to end in
:class:`TestRequestTelemetryEndToEnd`: one client-supplied request id
appears in the wire response, the structured log line, the
``/debug/tracez`` exemplar, and the tagged spans — while the plan
digest and work counters stay bit-identical to an untelemetered
in-process run.  Telemetry records; it never feeds back.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.histogram import LogHistogram
from repro.obs.ops import (
    RequestContext,
    TraceBuffer,
    build_span_tree,
    current_context,
    current_request_id,
    new_request_id,
    render_statusz,
    request_context,
    use_context,
)
from repro.obs.slog import (
    SLOG_KIND,
    SLOG_SCHEMA_VERSION,
    SlogWriter,
    make_record,
    validate_slog,
)
from repro.obs.tracer import Tracer
from repro.serve.client import ServeClient
from repro.serve.server import start_server
from repro.serve.service import PlanService
from repro.serve.wire import normalize_request_id

DEMO = {"app": {"preset": "demo"}}


class TestRequestContext:
    def test_no_context_by_default(self):
        assert current_context() is None
        assert current_request_id() is None

    def test_use_context_scopes_and_restores(self):
        ctx = RequestContext("rid-1", endpoint="plan")
        with use_context(ctx) as active:
            assert active is ctx
            assert current_request_id() == "rid-1"
            with use_context(None):
                assert current_context() is None
            assert current_context() is ctx
        assert current_context() is None

    def test_request_context_mints_an_id(self):
        with request_context() as ctx:
            assert len(ctx.request_id) == 16
        with request_context("explicit") as ctx:
            assert ctx.request_id == "explicit"

    def test_new_request_ids_are_distinct(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(normalize_request_id(rid) == rid for rid in ids)

    def test_counter_deltas_accumulate(self):
        ctx = RequestContext("rid-2")
        ctx.note_counter("x", 1.0)
        ctx.note_counter("x", 2.0)
        assert ctx.counters() == {"x": 3.0}


class TestTracerTagging:
    def test_spans_tagged_and_filed_on_context(self):
        tracer = Tracer()
        with request_context("tag-me") as ctx:
            with tracer.span("outer", cat="t"):
                with tracer.span("inner", cat="t"):
                    pass
                tracer.instant("mark", cat="t")
        assert all(
            e["args"]["request_id"] == "tag-me" for e in tracer.events
        )
        names = [e["name"] for e in ctx.spans()]
        assert set(names) == {"outer", "inner", "mark"}

    def test_no_context_means_no_tag(self):
        tracer = Tracer()
        with tracer.span("outer", cat="t"):
            pass
        assert "request_id" not in tracer.events[0].get("args", {})

    def test_counters_noted_on_context(self):
        tracer = Tracer()
        with request_context("c1") as ctx:
            tracer.metrics.inc("work.units", 5)
        assert ctx.counters() == {"work.units": 5.0}

    def test_max_events_bounds_the_ring(self):
        tracer = Tracer(max_events=4)
        for i in range(10):
            tracer.instant(f"e{i}", cat="t")
        assert len(tracer.events) == 4
        assert [e["name"] for e in tracer.events] == ["e6", "e7", "e8", "e9"]
        with pytest.raises(ValueError):
            Tracer(max_events=0)


class TestSpanTree:
    def test_nesting_by_containment(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 100.0, "args": {}},
            {"name": "b", "ph": "X", "ts": 10.0, "dur": 30.0,
             "args": {"request_id": "r", "k": 1}},
            {"name": "c", "ph": "i", "ts": 15.0, "dur": 0.0, "args": {}},
            {"name": "d", "ph": "X", "ts": 60.0, "dur": 20.0, "args": {}},
            {"name": "meta", "ph": "M", "ts": 0.0, "args": {}},
        ]
        tree = build_span_tree(events)
        assert [n["name"] for n in tree] == ["a"]
        children = tree[0]["children"]
        assert [n["name"] for n in children] == ["b", "d"]
        assert [n["name"] for n in children[0]["children"]] == ["c"]
        # request_id is the exemplar's own key; it is stripped from args.
        assert children[0]["args"] == {"k": 1}

    def test_non_json_args_are_stringified(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0,
             "args": {"obj": object()}},
        ]
        tree = build_span_tree(events)
        json.dumps(tree)  # must be JSON-safe
        assert isinstance(tree[0]["args"]["obj"], str)


class TestTraceBuffer:
    def _exemplar(self, rid, elapsed_ms=1.0, outcome="ok"):
        return {"request_id": rid, "elapsed_ms": elapsed_ms,
                "outcome": outcome}

    def test_files_slow_and_errors(self):
        buf = TraceBuffer(capacity=8, slow_ms=100.0)
        buf.record(self._exemplar("fast"))
        buf.record(self._exemplar("slow", elapsed_ms=150.0))
        buf.record(self._exemplar("bad", outcome="error"))
        buf.record(self._exemplar("late", elapsed_ms=500.0,
                                  outcome="timeout"))
        snap = buf.snapshot()
        assert snap["recorded"] == 4
        assert [e["request_id"] for e in snap["recent"]] == [
            "late", "bad", "slow", "fast"
        ]
        assert [e["request_id"] for e in snap["slow"]] == ["late", "slow"]
        assert [e["request_id"] for e in snap["errors"]] == ["late", "bad"]

    def test_capacity_evicts_oldest(self):
        buf = TraceBuffer(capacity=2, slow_ms=1e9)
        for i in range(5):
            buf.record(self._exemplar(f"r{i}"))
        snap = buf.snapshot()
        assert [e["request_id"] for e in snap["recent"]] == ["r4", "r3"]
        assert snap["recorded"] == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestSlog:
    def test_make_record_round_trips_validation(self):
        record = make_record(
            request_id="rid", endpoint="plan", outcome="ok", status=200,
            elapsed_ms=12.345678, fingerprint="fp", preset="demo",
            served="planned", queue_wait_ms=0.5,
            phases_ms={"profile": 3.0, "skipped": 0.0},
        )
        assert validate_slog(record) is record
        assert record["schema_version"] == SLOG_SCHEMA_VERSION
        assert record["kind"] == SLOG_KIND
        assert record["elapsed_ms"] == 12.346
        assert record["phases_ms"] == {"profile": 3.0}  # zero-phases dropped

    def test_validate_rejects_malformed(self):
        good = make_record(
            request_id="rid", endpoint="plan", outcome="ok", status=200,
            elapsed_ms=1.0,
        )
        for mutate in (
            {"schema_version": 99},
            {"kind": "other"},
            {"outcome": "mystery"},
            {"request_id": ""},
            {"elapsed_ms": -1.0},
            {"status": "200"},
            {"surprise": 1},
            {"phases_ms": {"p": -1.0}},
            {"error": {"message": "no code"}},
        ):
            with pytest.raises(ValueError):
                validate_slog({**good, **mutate})

    def test_writer_emits_sorted_single_lines(self):
        stream = io.StringIO()
        writer = SlogWriter(stream)
        writer.emit(make_record(
            request_id="rid", endpoint="plan", outcome="ok", status=200,
            elapsed_ms=1.0,
        ))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert list(parsed) == sorted(parsed)
        assert '"kind": "serve-request"' in lines[0]


class TestNormalizeRequestId:
    def test_valid_ids_pass_through(self):
        for rid in ("abc", "A-b_c.d:e", "x" * 128):
            assert normalize_request_id(rid) == rid

    def test_invalid_ids_are_replaced_not_rejected(self):
        for raw in (None, "", "   ", "x" * 129, "bad id", "ürümqi", "a\nb"):
            minted = normalize_request_id(raw)
            assert minted != raw
            assert len(minted) == 16

    def test_surrounding_whitespace_stripped(self):
        assert normalize_request_id("  rid-1  ") == "rid-1"


@pytest.fixture()
def telemetered_daemon():
    stream = io.StringIO()
    service = PlanService(
        tracer=Tracer(), slog=SlogWriter(stream), slow_ms=0.0
    )
    handle = start_server(service)
    yield handle, stream
    handle.close()


class TestRequestTelemetryEndToEnd:
    """The acceptance contract for the telemetry PR."""

    def test_one_id_everywhere_and_plans_stay_bit_identical(
        self, telemetered_daemon
    ):
        from repro.core.ktiler import KTiler
        from repro.serve.wire import parse_plan_request, plan_digest

        handle, stream = telemetered_daemon
        client = ServeClient(handle.url)
        rid = "e2e-" + new_request_id()
        response = client.plan(DEMO, request_id=rid)

        # 1. Wire: body and header echo the id.
        assert response["request_id"] == rid
        assert client.last_request_id == rid

        # 2. Structured log: exactly one line, carrying the id.
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert len(lines) == 1
        record = lines[0]
        assert record["request_id"] == rid
        assert record["outcome"] == "ok"
        assert record["served"] == "planned"
        assert record["elapsed_ms"] == response["elapsed_ms"]
        assert record["fingerprint"] == response["fingerprint"]

        # 3. Tracez: the exemplar is filed with spans + counters.
        snap = handle.service.debug_tracez()
        exemplar = snap["recent"][0]
        assert exemplar["request_id"] == rid
        span_names = set()

        def walk(nodes):
            for node in nodes:
                span_names.add(node["name"])
                walk(node["children"])

        walk(exemplar["spans"])
        assert "serve.request" in span_names
        assert "serve.plan" in span_names
        assert exemplar["counters"].get("serve.plans") == 1

        # 4. Tracer events carry the id.
        tagged = [
            e for e in handle.service.tracer.events
            if e.get("args", {}).get("request_id") == rid
        ]
        assert tagged, "no spans tagged with the request id"

        # 5. Bit-identity: same digest and work stats as an in-process,
        #    untelemetered KTiler run of the same request.
        request = parse_plan_request(DEMO)
        plan = KTiler(
            request.graph, spec=request.spec, config=request.config,
            planner_backend=request.planner_backend,
        ).plan(request.freq)
        assert response["plan_digest"] == plan_digest(
            plan.schedule, request.graph
        )
        from dataclasses import asdict

        assert response["stats"] == asdict(plan.stats)

    def test_minted_id_when_client_sends_none(self, telemetered_daemon):
        handle, stream = telemetered_daemon
        client = ServeClient(handle.url)
        response = client.plan(DEMO)
        rid = response["request_id"]
        assert len(rid) == 16
        assert client.last_request_id == rid

    def test_metrics_histogram_matches_response_elapsed(
        self, telemetered_daemon
    ):
        """/metrics bucket counts == a histogram rebuilt from the
        elapsed_ms values the responses actually carried."""
        handle, stream = telemetered_daemon
        client = ServeClient(handle.url)
        expected = LogHistogram()
        outcomes = []
        responses = [client.plan(DEMO) for _ in range(5)]
        for response in responses:
            expected.observe(response["elapsed_ms"] / 1000.0)
            outcomes.append(response["served"])
        assert outcomes == ["planned"] + ["memo"] * 4

        metrics = handle.service.tracer.metrics
        merged = metrics.merged_histogram("serve.latency", endpoint="plan")
        assert merged.counts == expected.counts
        assert merged.count == expected.count

        # And the Prometheus exposition carries the same cumulative
        # bucket counts.
        text = handle.service.metrics_text()
        cumulative = {}
        for line in text.splitlines():
            if line.startswith("serve_latency_bucket{") and (
                'endpoint="plan"' in line
            ):
                le = line.split('le="')[1].split('"')[0]
                cumulative[le] = cumulative.get(le, 0) + int(line.split()[-1])
        assert cumulative == dict(expected.bucket_pairs())

    def test_timeout_and_error_outcomes_logged(self):
        import threading

        stream = io.StringIO()
        release = threading.Event()
        service = PlanService(
            tracer=Tracer(), slog=SlogWriter(stream), timeout_s=0.2
        )
        original = service._plan_job

        def stalled(request, fingerprint):
            release.wait(timeout=10)
            return original(request, fingerprint)

        service._plan_job = stalled
        handle = start_server(service)
        try:
            client = ServeClient(handle.url)
            from repro.serve.client import ServeClientError

            with pytest.raises(ServeClientError) as excinfo:
                client.plan(DEMO, request_id="will-time-out")
            assert excinfo.value.status == 504
            assert excinfo.value.request_id == "will-time-out"

            with pytest.raises(ServeClientError) as excinfo:
                client.plan({"app": {"preset": "nope"}}, request_id="bad-req")
            assert excinfo.value.status == 400
        finally:
            release.set()
            handle.close()
        records = {
            r["request_id"]: r
            for r in map(json.loads, stream.getvalue().splitlines())
        }
        assert records["will-time-out"]["outcome"] == "timeout"
        assert records["will-time-out"]["status"] == 504
        assert records["bad-req"]["outcome"] == "error"
        assert records["bad-req"]["error"]["code"] == "unknown_preset"
        errors = service.tracez.snapshot()["errors"]
        assert {e["request_id"] for e in errors} >= {
            "will-time-out", "bad-req"
        }

    def test_telemetry_failure_never_fails_the_request(self, capsys):
        class ExplodingWriter:
            def emit(self, record):
                raise RuntimeError("log pipeline down")

        service = PlanService(tracer=Tracer(), slog=ExplodingWriter())
        handle = start_server(service)
        try:
            client = ServeClient(handle.url)
            response = client.plan(DEMO)
            assert response["served"] == "planned"
        finally:
            handle.close()
        assert service.tracer.metrics.total("serve.telemetry_errors") == 1


class TestLiveOpsEndpoints:
    def test_debug_vars_shape(self, telemetered_daemon):
        handle, _ = telemetered_daemon
        client = ServeClient(handle.url)
        client.plan(DEMO)
        payload = client.debug_vars()
        assert payload["pid"] > 0
        assert payload["memo_entries"] == 1
        metrics = payload["metrics"]
        latency = metrics["serve.latency"]
        assert latency["kind"] == "histogram"
        sample = latency["samples"][0]
        assert sample["labels"] == {"endpoint": "plan", "outcome": "ok"}
        assert sample["histogram"]["count"] == 1
        json.dumps(payload)  # fully JSON-safe

    def test_debug_tracez_shape(self, telemetered_daemon):
        handle, _ = telemetered_daemon
        client = ServeClient(handle.url)
        client.plan(DEMO, request_id="tz-1")
        payload = client.debug_tracez()
        assert payload["recorded"] == 1
        assert payload["recent"][0]["request_id"] == "tz-1"
        # slow_ms=0 files everything into the slow ring too.
        assert payload["slow"][0]["request_id"] == "tz-1"
        json.dumps(payload)

    def test_statusz_is_selfcontained_html(self, telemetered_daemon):
        handle, _ = telemetered_daemon
        client = ServeClient(handle.url)
        client.plan(DEMO, request_id="sz-1")
        page = client.statusz()
        assert page.startswith("<!DOCTYPE html>")
        assert "ktiler statusz" in page
        assert "sz-1" in page  # slow table shows the exemplar
        assert "heatstrip" in page
        assert "<script" not in page

    def test_render_statusz_tolerates_empty_snapshot(self):
        page = render_statusz({})
        assert "ktiler statusz" in page
        assert "no requests yet" in page
