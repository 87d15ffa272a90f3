"""The service's memo layers, tested in process against PlanService.

* **front memo** — a request whose canonical echo was seen before gets
  its fingerprint without building or hashing the kernel graph, and
  that fingerprint is always the one a fresh parse would compute;
* **byte memo** — every response (planned, memo, coalesced; plan,
  explain, measure, ledger) is the memoized result bytes with the
  per-request fields spliced on: it decodes to the same object the
  dict-assembled response did, and ends with ``served``,
  ``elapsed_ms``, ``request_id``;
* **echo** — a memo hit echoes its own request, never the first
  requester's.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.freq import NOMINAL
from repro.serve import service as service_module
from repro.serve import wire
from repro.serve.service import PlanService
from repro.serve.wire import parse_plan_request, plan_fingerprint
from repro.store.store import NULL_STORE

DIAMOND = {"app": {"preset": "diamond"}}
PER_REQUEST = ["request", "served", "elapsed_ms", "request_id"]


def fresh_fingerprint(body) -> str:
    """The fingerprint computed the long way: parse, build, hash."""
    return plan_fingerprint(parse_plan_request(body), NULL_STORE.key_for)


@pytest.fixture()
def counted(monkeypatch):
    """Counts graph builds and plan_fingerprint calls."""
    counts = {"builds": 0, "fingerprints": 0}
    build, fingerprint = wire._build_preset, service_module.plan_fingerprint

    def counting_build(*args, **kwargs):
        counts["builds"] += 1
        return build(*args, **kwargs)

    def counting_fingerprint(*args, **kwargs):
        counts["fingerprints"] += 1
        return fingerprint(*args, **kwargs)

    monkeypatch.setattr(wire, "_build_preset", counting_build)
    monkeypatch.setattr(service_module, "plan_fingerprint", counting_fingerprint)
    return counts


class TestFrontMemo:
    def test_repeat_and_respelled_hits_skip_graph_and_hash(self, counted):
        service = PlanService()
        first = json.loads(service.plan(DIAMOND))
        assert first["served"] == "planned"
        assert counted == {"builds": 1, "fingerprints": 1}

        respelled = {
            "app": {"preset": "diamond", "size": 128},
            "gpu": {"base": "scaled"},
            "freq": {"gpu_mhz": int(NOMINAL.gpu_mhz), "mem_mhz": NOMINAL.mem_mhz},
            "config": {},
        }
        for body in (DIAMOND, respelled):
            response = json.loads(service.plan(body))
            assert response["served"] == "memo"
            assert response["fingerprint"] == first["fingerprint"]
        assert counted == {"builds": 1, "fingerprints": 1}

    def test_a_new_variant_of_a_known_echo_builds_only_to_plan(self, counted):
        """A measure request after a plain one skips the fingerprint but
        must build the graph once, for its own planning job."""
        service = PlanService()
        service.plan(DIAMOND)
        measured = json.loads(service.plan({**DIAMOND, "measure": True}))
        assert measured["served"] == "planned"
        assert counted == {"builds": 2, "fingerprints": 1}

    def test_front_memo_is_bounded(self):
        service = PlanService(max_memo_entries=2)
        for size in (8, 9, 10):
            service._fingerprint(
                parse_plan_request({"app": {"preset": "diamond", "size": size}})
            )
        assert len(service._fingerprints) == 2

    _service = PlanService()

    @settings(max_examples=60, deadline=None)
    @given(
        app=st.one_of(
            st.fixed_dictionaries(
                {"preset": st.sampled_from(["diamond", "stencil", "demo"])},
                optional={"size": st.sampled_from([8, 16, 128])},
            ),
            st.fixed_dictionaries(
                {
                    "preset": st.sampled_from(["chain", "fan"]),
                    "kernels": st.integers(min_value=3, max_value=5),
                    "size": st.just(8),
                },
                optional={"seed": st.sampled_from([0, 1])},
            ),
        ),
        gpu=st.sampled_from([
            None, {}, {"base": "scaled"}, {"l2_kb": 512}, {"l2_kb": 512.0},
            {"l2_bytes": 524288}, {"l2_kb": 256}, {"base": "embedded"},
        ]),
        gpu_mhz=st.sampled_from([None, 1324, 1324.0, 666.0]),
        config=st.sampled_from([
            None, {}, {"threshold_us": 0}, {"launch_overhead_us": 1.0},
            {"launch_overhead_us": 0.0},
        ]),
        planner_backend=st.sampled_from([None, "reference", "fast"]),
    )
    def test_front_memo_fingerprint_matches_a_fresh_one(
        self, app, gpu, gpu_mhz, config, planner_backend
    ):
        """One service across all examples, so its front memo holds
        many spellings at once: whatever it answers must equal the
        fingerprint of a fresh parse, build and hash."""
        body = {"app": app}
        for key, value in (("gpu", gpu), ("config", config),
                           ("planner_backend", planner_backend)):
            if value is not None:
                body[key] = value
        if gpu_mhz is not None:
            body["freq"] = {"gpu_mhz": gpu_mhz, "mem_mhz": NOMINAL.mem_mhz}
        expected = fresh_fingerprint(body)
        for _ in range(2):  # a miss (or an earlier example's entry), then a hit
            assert self._service._fingerprint(parse_plan_request(body)) == expected


def _expected(service, endpoint, body):
    """The response object as the dict-assembled path built it: the job
    result plus the request echo, JSON round-tripped."""
    request = parse_plan_request(body)
    fingerprint = fresh_fingerprint(body)
    job = service._plan_job if endpoint == "plan" else service._explain_job
    result = job(request, fingerprint)
    result["request"] = request.echo
    return json.loads(json.dumps(result))


def _serve_coalesced(service, monkeypatch, endpoint, body):
    """(leader, follower) raw responses for one fingerprint, the follower
    arriving while the leader's planning job is held in flight."""
    gate = threading.Event()
    run_job = service._run_job

    def held_job(*args, **kwargs):
        gate.wait(timeout=60)
        return run_job(*args, **kwargs)

    monkeypatch.setattr(service, "_run_job", held_job)
    send = getattr(service, endpoint)
    raw = {}

    def call(name):
        raw[name] = send(body, request_id=name)

    def wait_for(condition):
        deadline = time.perf_counter() + 60
        while not condition():
            assert time.perf_counter() < deadline
            time.sleep(0.005)

    leader = threading.Thread(target=call, args=("leader",))
    leader.start()
    wait_for(lambda: service._inflight)
    follower = threading.Thread(target=call, args=("follower",))
    follower.start()
    wait_for(lambda: service.tracer.metrics.total("serve.coalesced") == 1)
    gate.set()
    for thread in (leader, follower):
        thread.join(timeout=60)
        assert not thread.is_alive()
    return raw["leader"], raw["follower"]


VARIANTS = {
    "plan": ("plan", {}),
    "measure": ("plan", {"measure": True}),
    "ledger": ("plan", {"ledger": True}),
    "explain": ("explain", {}),
}


class TestResponseBytes:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_every_response_decodes_to_the_assembled_object(
        self, monkeypatch, variant
    ):
        endpoint, flags = VARIANTS[variant]
        body = {**DIAMOND, **flags}
        service = PlanService()
        leader, follower = _serve_coalesced(service, monkeypatch, endpoint, body)
        memo = getattr(service, endpoint)(body, request_id="memo")
        expected = _expected(service, endpoint, body)

        for raw, served, rid in ((leader, "planned", "leader"),
                                 (follower, "coalesced", "follower"),
                                 (memo, "memo", "memo")):
            response = json.loads(raw)
            assert list(response)[-4:] == PER_REQUEST
            assert response["served"] == served
            assert response["request_id"] == rid
            assert response["elapsed_ms"] >= 0
            assert response == {
                **expected,
                "served": served,
                "elapsed_ms": response["elapsed_ms"],
                "request_id": rid,
            }
            if not flags:
                # `request` was already the last result key, so a plain
                # plan or explain response is byte-for-byte what
                # json.dumps of the assembled dict gave.
                assert raw == json.dumps(response).encode("utf-8")


class TestEcho:
    def test_memo_hits_echo_their_own_gpu_spelling(self):
        service = PlanService()
        gpus = ({"l2_kb": 512}, {"l2_bytes": 524288}, {"l2_kb": 512.0})
        responses = [
            json.loads(service.plan({**DIAMOND, "gpu": gpu})) for gpu in gpus
        ]
        assert [r["served"] for r in responses] == ["planned", "memo", "memo"]
        assert len({r["fingerprint"] for r in responses}) == 1
        for gpu, response in zip(gpus, responses):
            # Compared as JSON text: 512 and 512.0 are equal as numbers.
            assert json.dumps(response["request"]["gpu"]) == json.dumps(
                {"base": "scaled", **gpu}
            )

    def test_explain_memo_keeps_each_presets_name(self):
        """``demo`` and ``pipeline`` at one size build one graph, so they
        share a fingerprint; each audit still names its own preset."""
        service = PlanService()
        demo = {"app": {"preset": "demo", "size": 64}}
        pipeline = {"app": {"preset": "pipeline", "size": 64}}
        a = json.loads(service.explain(demo))
        b = json.loads(service.explain(pipeline))
        assert a["fingerprint"] == b["fingerprint"]
        assert (a["audit"]["preset"], b["audit"]["preset"]) == ("demo", "pipeline")
        assert b["request"]["app"]["preset"] == "pipeline"
        again = json.loads(service.explain(demo))
        assert again["served"] == "memo"
        assert again["audit"]["preset"] == "demo"


class TestStress:
    def test_concurrent_hits_keep_their_own_echo_and_fingerprint(self):
        """Eight threads, switching every 10 µs, send respelled bodies
        of three plans: every response must carry its own echo and its
        plan's fingerprint, and every counter update must land (a lost
        one breaks the totals)."""
        service = PlanService()
        bodies = []
        for size in (8, 16, 32):
            app = {"preset": "diamond", "size": size}
            bodies.append({"app": app})
            bodies.append({"app": app, "gpu": {"l2_kb": 512}})
            bodies.append({"app": app, "freq": {"gpu_mhz": int(NOMINAL.gpu_mhz)}})
        expected = {i: fresh_fingerprint(body) for i, body in enumerate(bodies)}
        for body in bodies[::3]:
            service.plan(body)
        rounds, errors = 25, []

        def worker(offset):
            try:
                for r in range(rounds):
                    i = (offset + r) % len(bodies)
                    response = json.loads(service.plan(bodies[i]))
                    assert response["served"] == "memo"
                    assert response["fingerprint"] == expected[i]
                    assert response["request"] == parse_plan_request(bodies[i]).echo
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        metrics = service.tracer.metrics
        assert metrics.total("serve.memo_hits") == 8 * rounds
        assert metrics.total("serve.plans") == 3
        # The int gpu_mhz spelling resolves to its plain body's echo.
        assert len(service._fingerprints) == 6
