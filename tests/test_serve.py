"""Black-box integration suite for the ``ktiler serve`` daemon.

Everything here talks to a real daemon over real HTTP (ephemeral port,
stdlib ``http.client``) — never to :class:`PlanService` directly — so
the wire format, routing, Content-Length discipline, keep-alive, and
error mapping are what is exercised.  The core contract: a plan served
over the wire is byte-identical (same plan digest, same schedule
document) to ``KTiler.plan`` called in-process on the same request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.serve import server as server_module
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import start_server
from repro.serve.service import PlanService
from repro.serve.wire import parse_plan_request, plan_digest, plan_fingerprint
from repro.store.store import NULL_STORE


def make_daemon(**service_kwargs):
    """A fresh daemon on an ephemeral port; caller closes the handle."""
    service = PlanService(**service_kwargs)
    return start_server(service)


@pytest.fixture()
def daemon():
    handle = make_daemon()
    yield handle
    handle.close()


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.url) as client:
        yield client


DEMO = {"app": {"preset": "demo"}}


class TestPlanEndpoint:
    def test_plan_digest_matches_in_process_ktiler(self, client):
        """The bit-identity contract, end to end over the wire."""
        from repro.core.ktiler import KTiler
        from repro.core.serialize import schedule_to_dict

        response = client.plan(DEMO)
        request = parse_plan_request(DEMO)
        ktiler = KTiler(
            request.graph,
            spec=request.spec,
            config=request.config,
            planner_backend=request.planner_backend,
        )
        plan = ktiler.plan(request.freq)
        assert response["fingerprint"] == plan_fingerprint(
            request, NULL_STORE.key_for
        )
        assert response["plan_digest"] == plan_digest(plan.schedule, request.graph)
        assert response["schedule"] == schedule_to_dict(plan.schedule, request.graph)
        assert response["estimated_cost_us"] == pytest.approx(
            plan.estimated_cost_us
        )

    def test_response_schedule_deserializes_to_the_digested_schedule(
        self, client
    ):
        from repro.core.serialize import schedule_from_dict

        response = client.plan(DEMO)
        request = parse_plan_request(DEMO)
        schedule = schedule_from_dict(response["schedule"], request.graph)
        assert plan_digest(schedule, request.graph) == response["plan_digest"]

    def test_second_identical_request_is_a_memo_hit(self, daemon, client):
        first = client.plan(DEMO)
        second = client.plan(DEMO)
        assert first["served"] == "planned"
        assert second["served"] == "memo"
        assert second["plan_digest"] == first["plan_digest"]
        assert second["schedule"] == first["schedule"]
        metrics = daemon.service.tracer.metrics
        assert metrics.total("serve.plans") == 1
        assert metrics.total("serve.memo_hits") == 1

    def test_measure_returns_blocking_and_streamed_timing(self, client):
        response = client.plan({"app": {"preset": "demo"}, "measure": True})
        timing = response["timing"]
        blocking, streamed = timing["blocking"], timing["streamed"]
        assert blocking["num_launches"] == streamed["num_launches"]
        assert blocking["busy_us"] == pytest.approx(streamed["busy_us"])
        # Pipelined submission never beats pure busy time and never
        # loses to blocking submission.
        assert streamed["busy_us"] <= streamed["total_us"] <= blocking["total_us"]

    def test_sim_backend_field_is_an_unknown_field_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({**DEMO, "sim_backend": "fast"})
        assert err.value.status == 400
        assert err.value.code == "bad_request"
        assert "sim_backend" in str(err.value)

    def test_workers_field_is_an_unknown_field_400(self, daemon, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({**DEMO, "workers": 2})
        assert err.value.status == 400
        assert err.value.code == "bad_request"
        assert "workers" in str(err.value)
        assert daemon.service.tracer.metrics.total("serve.plans") == 0

    def test_distinct_frequencies_get_distinct_fingerprints(self, client):
        nominal = client.plan(DEMO)
        lowered = client.plan(
            {**DEMO, "freq": {"gpu_mhz": 549.0, "mem_mhz": 5010.0}}
        )
        assert nominal["fingerprint"] != lowered["fingerprint"]


class TestWarmStore:
    def test_restarted_daemon_reuses_the_artifact_store(self, tmp_path):
        from repro.store.store import ArtifactStore

        first = make_daemon(store=ArtifactStore(tmp_path / "cache"))
        try:
            with ServeClient(first.url) as client:
                cold = client.plan(DEMO)
        finally:
            first.close()
        assert cold["served"] == "planned"

        second = make_daemon(store=ArtifactStore(tmp_path / "cache"))
        try:
            with ServeClient(second.url) as client:
                warm = client.plan(DEMO)
            metrics = second.service.tracer.metrics
            # A fresh daemon has no memo, so the request runs a planning
            # job — which is answered by the store, not replanned.
            assert warm["served"] == "planned"
            assert metrics.total("store.hits") >= 1
        finally:
            second.close()
        assert warm["plan_digest"] == cold["plan_digest"]
        assert warm["schedule"] == cold["schedule"]
        assert warm["stats"] == cold["stats"]


class TestErrorHandling:
    def test_malformed_json_is_a_structured_400(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/plan",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_json"
        assert "message" in payload["error"]

    def test_oversized_body_is_a_structured_413(self, tmp_path):
        handle = make_daemon(max_body_bytes=512)
        try:
            client = ServeClient(handle.url)
            with pytest.raises(ServeClientError) as err:
                client.plan({"app": {"preset": "demo"}, "gpu": {}, "config": {},
                             "freq": {}, "planner_backend": "x" * 600})
            assert err.value.status == 413
            assert err.value.code == "body_too_large"
        finally:
            handle.close()

    def test_missing_content_length_is_411(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/plan")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 411
        assert payload["error"]["code"] == "length_required"

    def test_unknown_preset_is_a_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"app": {"preset": "no-such-app"}})
        assert err.value.status == 400
        assert err.value.code == "unknown_preset"
        assert "no-such-app" in str(err.value)

    def test_unknown_gpu_field_is_a_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"app": {"preset": "demo"},
                         "gpu": {"warp_drive": True}})
        assert err.value.status == 400
        assert err.value.code == "unknown_gpu"

    def test_unknown_gpu_base_is_a_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"gpu": {"base": "tpu"}})
        assert err.value.status == 400
        assert err.value.code == "unknown_gpu"

    def test_invalid_gpu_value_is_a_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"gpu": {"l2_bytes": -1}})
        assert err.value.status == 400
        assert err.value.code == "bad_value"

    @pytest.mark.parametrize(
        "gpu",
        [
            {"l2_kb": 0},
            {"l2_bytes": 0},
            {"l2_assoc": 0},
            {"l2_assoc": -1},
            {"schedulers_per_sm": 0},
            {"mem_bus_bytes": 0},
            {"mem_bus_bytes": -1},
            {"dram_fixed_latency_ns": -1},
            {"dram_freq_latency_ns": -1},
            {"dram_ref_mhz": -1},
            {"launch_gap_us": -1},
            {"num_sms": 2.5},
            {"num_sms": 5.0},
            {"l2_assoc": 2.0},
            {"max_blocks_per_sm": 1.5},
        ],
        ids=lambda gpu: "{}={}".format(*next(iter(gpu.items()))),
    )
    def test_impossible_gpu_spec_is_a_400_before_planning(
        self, daemon, client, gpu
    ):
        """GpuSpec rejects these at construction (a count must be a
        true integer), so the wire answers 400 ``bad_value`` and no
        planning job starts."""
        with pytest.raises(ServeClientError) as err:
            client.plan({**DEMO, "gpu": gpu})
        assert err.value.status == 400
        assert err.value.code == "bad_value"
        assert daemon.service.tracer.metrics.total("serve.plans") == 0

    @pytest.mark.parametrize("endpoint", ["plan", "explain"])
    def test_device_that_cannot_run_the_app_is_a_400(
        self, daemon, client, endpoint
    ):
        """A valid spec whose block limit is below the app's block size
        fails on the planner thread; the job's ConfigurationError is
        answered as 400 ``bad_value``, not as a 500."""
        with pytest.raises(ServeClientError) as err:
            getattr(client, endpoint)(
                {**DEMO, "gpu": {"max_threads_per_block": 128}}
            )
        assert err.value.status == 400
        assert err.value.code == "bad_value"
        metrics = daemon.service.tracer.metrics
        assert metrics.total("serve.errors", code="bad_value") == 1
        assert metrics.total("serve.errors", code="internal") == 0

    @pytest.mark.parametrize(
        "body, code",
        [
            ({"app": {"preset": ["fig5"]}}, "unknown_preset"),
            ({"freq": {"gpu_mhz": float("nan")}}, "bad_value"),
            ({"gpu": {"l2_kb": float("inf")}}, "bad_value"),
            ({"config": {"threshold_us": float("nan")}}, "bad_value"),
            ({"timeout_s": float("inf")}, "bad_value"),
        ],
        ids=["list-preset", "nan-freq", "inf-gpu", "nan-config", "inf-timeout"],
    )
    def test_values_json_cannot_plan_are_structured_400s(self, client, body, code):
        """Non-string presets and the NaN/Infinity ``json.loads`` accepts
        used to escape as 500s or as invalid JSON responses."""
        with pytest.raises(ServeClientError) as err:
            client.plan(body)
        assert err.value.status == 400
        assert err.value.code == code

    def test_l2_kb_and_l2_bytes_together_are_a_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"gpu": {"l2_kb": 512, "l2_bytes": 1024}})
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_unknown_top_level_field_is_a_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"schedule_me": "please"})
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_unknown_route_is_a_structured_404(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/v2/plan", {})
        assert err.value.status == 404
        assert err.value.code == "not_found"

    def test_errors_are_counted(self, daemon, client):
        with pytest.raises(ServeClientError):
            client.plan({"app": {"preset": "no-such-app"}})
        metrics = daemon.service.tracer.metrics
        assert metrics.total("serve.errors", code="unknown_preset") == 1
        assert metrics.total("serve.requests", endpoint="plan", status="400") == 1


class TestTimeout:
    def test_timeout_is_a_structured_504_and_the_job_still_lands(self):
        # A ceiling no cold plan can beat; the memo path checks before
        # the single-flight wait, so a retry succeeds once the job lands.
        handle = make_daemon(timeout_s=1e-4)
        try:
            client = ServeClient(handle.url)
            with pytest.raises(ServeClientError) as err:
                client.plan(DEMO)
            assert err.value.status == 504
            assert err.value.code == "timeout"
            deadline = time.perf_counter() + 60
            while time.perf_counter() < deadline:
                try:
                    response = client.plan(DEMO)
                    break
                except ServeClientError as exc:
                    assert exc.status == 504
                    time.sleep(0.05)
            else:
                pytest.fail("abandoned planning job never landed in the memo")
            assert response["served"] == "memo"
            assert handle.service.tracer.metrics.total("serve.plans") == 1
        finally:
            handle.close()


class TestIntrospection:
    def test_healthz_is_well_formed(self, client):
        client.plan(DEMO)
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["inflight"] == 0
        assert health["memo_entries"] == 1
        assert health["counters"]["serve.plans"] == 1
        assert health["counters"]["serve.requests"] >= 1

    def test_metrics_is_well_formed_prometheus(self, client):
        client.plan(DEMO)
        text = client.metrics()
        families = set()
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                families.add(line.split()[2])
                continue
            # sample lines: name{labels} value  |  name value; histogram
            # families expose _bucket/_sum/_count series.
            name = line.split("{")[0].split(" ")[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    name = name[: -len(suffix)]
                    break
            float(line.rsplit(" ", 1)[1])
            assert name in families, f"sample {line!r} lacks HELP/TYPE"
        assert "serve_requests" in families
        assert "serve_plans" in families
        assert "serve_inflight" in families
        assert "serve_latency" in families
        assert "serve_latency_ms" not in families

    def test_explain_returns_a_valid_audit(self, client):
        from repro.obs.audit import validate_audit

        response = client.explain(DEMO)
        assert response["kind"] == "explain"
        validate_audit(response["audit"])
        assert response["audit"]["preset"] == "demo"


class TestAdvertisedUrl:
    """Regression: a 0.0.0.0/:: bind used to be advertised verbatim in
    ``ServeHandle.url``, which no client can dial."""

    def test_wildcard_bind_advertises_loopback(self):
        service = PlanService()
        handle = start_server(service, host="0.0.0.0")
        try:
            assert handle.bind_host == "0.0.0.0"
            assert handle.host == "127.0.0.1"
            assert handle.url == f"http://127.0.0.1:{handle.port}"
            # The advertised URL actually answers.
            with ServeClient(handle.url) as client:
                assert client.health()["status"] == "ok"
        finally:
            handle.close()

    def test_explicit_bind_is_advertised_verbatim(self, daemon):
        assert daemon.bind_host == "127.0.0.1"
        assert daemon.url == f"http://127.0.0.1:{daemon.port}"

    def test_advertised_host_mapping(self):
        from repro.serve.server import advertised_host

        for wildcard in ("0.0.0.0", "::", "0:0:0:0:0:0:0:0", ""):
            assert advertised_host(wildcard) == "127.0.0.1"
        assert advertised_host("10.1.2.3") == "10.1.2.3"
        assert advertised_host("::1") == "::1"


class TestKeepAlive:
    """Socket-level keep-alive discipline: the same connection must
    survive routed requests and 404s (body drained), while unknowable
    or oversized framing (411/413/bad Content-Length) closes it."""

    def _post(self, conn, path, body=b"{}", headers=None):
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = conn.getresponse()
        payload = response.read()
        return response, payload

    def test_connection_survives_404s_between_requests(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            response, payload = self._post(conn, "/v1/plan",
                                           json.dumps(DEMO).encode())
            assert response.status == 200
            assert json.loads(payload)["served"] == "planned"

            # POST 404 with a declared body: drained, kept alive.
            response, payload = self._post(
                conn, "/v2/plan", body=b'{"x": 1}'
            )
            assert response.status == 404
            assert json.loads(payload)["error"]["code"] == "not_found"

            # GET 404: no body to corrupt framing, kept alive.
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()

            # Same socket still serves.
            response, payload = self._post(conn, "/v1/plan",
                                           json.dumps(DEMO).encode())
            assert response.status == 200
            assert json.loads(payload)["served"] == "memo"
        finally:
            conn.close()

    def test_missing_content_length_closes_connection(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/v1/plan")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            response = conn.getresponse()
            response.read()
            assert response.status == 411
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_oversized_body_closes_connection(self):
        handle = make_daemon(max_body_bytes=64)
        try:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                response, _ = self._post(conn, "/v1/plan", body=b"x" * 100)
                assert response.status == 413
                assert response.getheader("Connection") == "close"
            finally:
                conn.close()
        finally:
            handle.close()

    def test_invalid_content_length_closes_connection(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/v1/plan")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


class TestRequestIdOnErrors:
    """Even rejected requests echo the client's X-Request-Id header."""

    def test_404_echoes_request_id(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("GET", "/nope", headers={"X-Request-Id": "err-1"})
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("X-Request-Id") == "err-1"
        finally:
            conn.close()

    def test_400_surfaces_id_on_the_client_error(self, client):
        with pytest.raises(ServeClientError) as err:
            client.plan({"app": {"preset": "ghost"}}, request_id="err-2")
        assert err.value.request_id == "err-2"
        assert client.last_request_id == "err-2"

    def test_malformed_header_id_is_replaced(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request(
                "GET", "/healthz", headers={"X-Request-Id": "bad id!"}
            )
            response = conn.getresponse()
            response.read()
            echoed = response.getheader("X-Request-Id")
            assert echoed and echoed != "bad id!"
            assert len(echoed) == 16
        finally:
            conn.close()


@pytest.fixture()
def accepted(monkeypatch):
    """Client addresses of the TCP connections daemons accept."""
    addresses = []
    setup = server_module._Handler.setup

    def counting_setup(handler):
        addresses.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server_module._Handler, "setup", counting_setup)
    return addresses


class TestClientConnections:
    """``ServeClient`` keeps one connection per thread and reconnects
    when the daemon closed it."""

    def test_one_client_sends_every_request_over_one_connection(
        self, daemon, client, accepted
    ):
        responses = [client.plan(DEMO, request_id=f"ka-{i}") for i in range(5)]
        assert client.health()["status"] == "ok"
        assert [r["request_id"] for r in responses] == [f"ka-{i}" for i in range(5)]
        assert [r["served"] for r in responses] == ["planned"] + ["memo"] * 4
        assert len(accepted) == 1
        client.close()
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2

    def test_reconnects_after_a_connection_close_response(self, accepted):
        handle = make_daemon(max_body_bytes=512)
        try:
            with ServeClient(handle.url) as client:
                with pytest.raises(ServeClientError) as err:
                    client.plan({**DEMO, "planner_backend": "x" * 600})
                assert err.value.status == 413
                assert client.plan(DEMO)["served"] == "planned"
        finally:
            handle.close()
        assert len(accepted) == 2

    def test_reconnects_after_the_idle_timeout(self, monkeypatch, accepted):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        handle = make_daemon()
        try:
            with ServeClient(handle.url) as client:
                assert client.health()["status"] == "ok"
                time.sleep(0.6)  # the daemon closes the idle connection
                # The client still holds the dead socket; the request
                # finds it closed and retries on a fresh connection.
                assert client._local.conn.sock is not None
                assert client.health()["status"] == "ok"
        finally:
            handle.close()
        assert len(accepted) == 2

    def test_one_client_shared_by_four_threads(self, daemon, client, accepted):
        client.plan(DEMO)
        results, errors = {}, []
        done = threading.Barrier(5, timeout=60)
        closed = threading.Event()

        def worker(index):
            try:
                for j in range(5):
                    rid = f"t{index}-{j}"
                    results[rid] = client.plan(DEMO, request_id=rid)
            except BaseException as exc:
                errors.append(exc)
            done.wait()
            closed.wait(timeout=60)  # keep the connection until close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        done.wait()
        assert len(accepted) == 5  # the main thread's, then one per worker
        client.close()  # closes the workers' connections too
        assert all(conn.sock is None for conn in client._connections)
        closed.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors, errors[0]
        assert len(results) == 20
        assert all(r["request_id"] == rid for rid, r in results.items())
        assert {r["served"] for r in results.values()} == {"memo"}
