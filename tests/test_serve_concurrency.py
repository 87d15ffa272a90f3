"""Concurrency and property tests for the serve daemon.

The claims under test:

* **single-flight** — N concurrent identical requests trigger exactly
  one planning job (``serve.plans`` pins it); everyone else coalesces
  onto the in-flight future or hits the memo, and every response
  carries the *same* plan digest, schedule, and work-counter block
  (the work counters prove which planning job produced a response:
  one job, one block, shared verbatim);
* **no cross-talk** — under a mixed workload each response echoes its
  own request (the frequency it asked for) and carries the digest of
  its own fingerprint, never a neighbour's;
* **property** — response plan digests are a function of request
  fingerprints: equal fingerprints ⇒ equal digests, and fingerprints
  ignore non-semantic knobs (sim backend) by construction.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.client import ServeClient
from repro.serve.server import start_server
from repro.serve.service import PlanService


def hammer(url: str, bodies, repeats: int):
    """Fire len(bodies)*repeats requests from a barrier, in parallel."""
    responses = [None] * (len(bodies) * repeats)
    errors = []
    barrier = threading.Barrier(len(responses))

    def worker(index: int, body: dict) -> None:
        client = ServeClient(url)
        barrier.wait()
        try:
            responses[index] = client.plan(body)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(r * len(bodies) + i, body))
        for r in range(repeats)
        for i, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    return responses


class TestSingleFlight:
    def test_identical_requests_plan_exactly_once(self):
        service = PlanService()
        with start_server(service) as handle:
            body = {"app": {"preset": "diamond"}}
            responses = hammer(handle.url, [body], repeats=8)
        metrics = service.tracer.metrics
        assert metrics.total("serve.plans") == 1
        served = sorted(r["served"] for r in responses)
        assert served.count("planned") == 1
        assert (
            metrics.total("serve.coalesced") + metrics.total("serve.memo_hits")
            == 7
        )
        digests = {r["plan_digest"] for r in responses}
        assert len(digests) == 1
        # One planning job ⇒ one work-counter block, shared verbatim.
        works = [r["stats"]["work"] for r in responses]
        assert all(work == works[0] for work in works)

    def test_distinct_fingerprints_each_plan_once(self):
        service = PlanService()
        freqs = (1324.0, 924.0, 549.0)
        bodies = [
            {
                "app": {"preset": "diamond"},
                "freq": {"gpu_mhz": gpu_mhz, "mem_mhz": 5010.0},
            }
            for gpu_mhz in freqs
        ]
        with start_server(service) as handle:
            responses = hammer(handle.url, bodies, repeats=4)
        metrics = service.tracer.metrics
        assert metrics.total("serve.plans") == len(bodies)
        assert len({r["fingerprint"] for r in responses}) == len(bodies)

    def test_no_cross_talk_between_responses(self):
        """Each response echoes its own request and its own plan."""
        service = PlanService()
        freqs = (1324.0, 797.0)
        bodies = [
            {
                "app": {"preset": "diamond"},
                "freq": {"gpu_mhz": gpu_mhz, "mem_mhz": 5010.0},
            }
            for gpu_mhz in freqs
        ]
        with start_server(service) as handle:
            responses = hammer(handle.url, bodies, repeats=6)
        by_fingerprint = {}
        for i, response in enumerate(responses):
            asked_mhz = freqs[i % len(freqs)]
            assert response["request"]["freq"]["gpu_mhz"] == asked_mhz
            previous = by_fingerprint.setdefault(
                response["fingerprint"],
                (response["plan_digest"], response["schedule"]),
            )
            assert previous == (response["plan_digest"], response["schedule"])
        assert len(by_fingerprint) == len(freqs)

    def test_memoized_and_planned_responses_are_identical(self):
        """The shared-result copy never leaks per-request fields."""
        service = PlanService()
        with start_server(service) as handle:
            client = ServeClient(handle.url)
            body = {"app": {"preset": "diamond"}}
            first = client.plan(body)
            second = client.plan(body)
        volatile = ("served", "elapsed_ms", "request_id")
        assert {k: v for k, v in first.items() if k not in volatile} == {
            k: v for k, v in second.items() if k not in volatile
        }


@pytest.fixture(scope="module")
def module_daemon():
    service = PlanService()
    handle = start_server(service)
    yield handle
    handle.close()


class TestDigestProperty:
    """Plan digests are a function of request fingerprints alone."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        shape=st.sampled_from(["chain", "fan"]),
        kernels=st.integers(min_value=3, max_value=5),
        gpu_mhz=st.sampled_from([1324.0, 666.0]),
    )
    def test_digest_depends_only_on_fingerprint(
        self, module_daemon, shape, kernels, gpu_mhz
    ):
        client = ServeClient(module_daemon.url)
        response = client.plan(
            {
                "app": {"preset": shape, "kernels": kernels, "size": 8},
                "freq": {"gpu_mhz": gpu_mhz, "mem_mhz": 5010.0},
            }
        )
        semantics = (shape, kernels, gpu_mhz)
        seen_fp = self._fingerprints.setdefault(
            semantics, response["fingerprint"]
        )
        # Same semantic request ⇒ same fingerprint.
        assert response["fingerprint"] == seen_fp
        seen_digest = self._digests.setdefault(
            response["fingerprint"], response["plan_digest"]
        )
        assert response["plan_digest"] == seen_digest

    _fingerprints: dict = {}
    _digests: dict = {}
