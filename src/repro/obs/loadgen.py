"""Closed-loop load generator for the tiling service (``ktiler loadgen``).

N client threads each issue a fixed number of back-to-back ``/v1/plan``
requests against a daemon (an externally running one, or an in-process
server booted for the run) and the per-request latencies roll up into a
schema-valid bench document (:func:`repro.obs.bench.validate_bench`).

Determinism: the *request schedule* — which fingerprint variant each
client hits on each iteration — is a pure function of ``(clients,
requests, distinct, seed)`` (see :func:`request_schedule`), so two runs
with one seed issue byte-identical request streams.  The measured
latencies are of course wall-clock noise; the document carries them as
samples exactly like any other benchmark.

Two benchmark rows per run:

* ``serve.<preset>.latency`` — every timed request's wall latency, the
  row to eyeball for p50-level shifts;
* ``serve.<preset>.p99`` — each client's own p99 as one sample, so a
  tail-latency step moves this row's *median* even when the latency
  row's median is steady.

Warm vs cold: each distinct fingerprint is planned once (serially,
untimed) before the clock starts, so the timed phase measures the
service's warm path — memo hits, coalescing, HTTP — which is the
steady state a deployed daemon lives in.

Raw samples are no longer discarded into summary stats alone: the
document carries the full client-side latency distribution as a
mergeable :class:`~repro.obs.histogram.LogHistogram`, plus the
server-reported one (built from each response's ``elapsed_ms``,
warm-up included) whose bucket counts match the daemon's own
``serve.latency`` Prometheus histogram exactly.  Each timed request's
``served`` tag (planned / memo / coalesced) is tallied into
``loadgen.outcomes`` so throughput decomposes.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs import doccheck
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    SampleStats,
    environment_fingerprint,
    validate_bench,
)
from repro.obs.histogram import LogHistogram

#: ``served`` tags a /v1/plan response can carry.
OUTCOME_TAGS = ("planned", "memo", "coalesced")

#: Frequency ladder the ``distinct`` knob walks to vary fingerprints
#: without varying the graph: (gpu_mhz, mem_mhz) pairs.
FREQ_LADDER = (
    (1324.0, 5010.0),
    (1097.0, 5010.0),
    (924.0, 5010.0),
    (797.0, 5010.0),
    (666.0, 5010.0),
    (549.0, 5010.0),
    (405.0, 5010.0),
    (202.0, 5010.0),
)


def request_schedule(
    clients: int, requests: int, distinct: int, seed: int
) -> List[List[int]]:
    """Variant index per (client, iteration); pure in its arguments."""
    if clients < 1 or requests < 1:
        raise ValueError("clients and requests must be >= 1")
    if not 1 <= distinct <= len(FREQ_LADDER):
        raise ValueError(f"distinct must be in [1, {len(FREQ_LADDER)}]")
    schedule = []
    for client in range(clients):
        rng = random.Random(seed * 1_000_003 + client)
        schedule.append([rng.randrange(distinct) for _ in range(requests)])
    return schedule


def build_request(preset: str, variant: int, app_params: Optional[dict] = None) -> dict:
    """The /v1/plan body for one fingerprint variant of a preset."""
    gpu_mhz, mem_mhz = FREQ_LADDER[variant]
    body: Dict[str, Any] = {
        "app": {"preset": preset, **(app_params or {})},
        "freq": {"gpu_mhz": gpu_mhz, "mem_mhz": mem_mhz},
    }
    return body


def _percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def build_loadgen_doc(
    preset: str,
    per_client_latencies: List[List[float]],
    per_client_cpu: List[float],
    duration_s: float,
    distinct: int,
    seed: int,
    warmup_requests: int,
    planner_backend: Optional[str] = None,
    created_unix: Optional[float] = None,
    per_client_outcomes: Optional[List[List[str]]] = None,
    server_elapsed_ms: Optional[List[float]] = None,
) -> dict:
    """Roll latencies up into a schema-valid bench document.

    Pure given its inputs (modulo ``created_unix`` defaulting to now),
    so tests drive it directly with synthetic latencies.

    ``per_client_outcomes`` carries each timed request's ``served``
    tag; omitted (offline/synthetic docs) every request counts as
    ``planned``.  ``server_elapsed_ms`` is the flat list of
    server-reported ``elapsed_ms`` values — warm-up requests included —
    whose histogram matches the daemon's ``serve.latency`` buckets.
    """
    all_latencies = [lat for client in per_client_latencies for lat in client]
    if not all_latencies:
        raise ValueError("no latencies recorded")
    if per_client_outcomes is None:
        per_client_outcomes = [
            ["planned"] * len(client) for client in per_client_latencies
        ]
    all_outcomes = [tag for client in per_client_outcomes for tag in client]
    if len(all_outcomes) != len(all_latencies):
        raise ValueError("outcomes and latencies disagree in length")
    unknown_tags = set(all_outcomes) - set(OUTCOME_TAGS)
    if unknown_tags:
        raise ValueError(f"unknown outcome tags: {sorted(unknown_tags)}")
    outcomes = {tag: all_outcomes.count(tag) for tag in OUTCOME_TAGS}
    latency_histogram = LogHistogram()
    for latency in all_latencies:
        latency_histogram.observe(latency)
    client_p99s = [
        _percentile(client, 99.0) for client in per_client_latencies if client
    ]
    clients = len(per_client_latencies)
    # cpu_s rows mirror wall rows in shape: total process CPU split
    # evenly per sample keeps the stats well-formed without pretending
    # per-request CPU attribution exists.
    cpu_per_request = (
        sum(per_client_cpu) / len(all_latencies) if per_client_cpu else 0.0
    )
    benchmarks = [
        {
            "name": f"serve.{preset}.latency",
            "repeats": len(all_latencies),
            "warmup": warmup_requests,
            "wall_s": SampleStats.from_samples(all_latencies).as_dict(),
            "cpu_s": SampleStats.from_samples(
                [cpu_per_request] * len(all_latencies)
            ).as_dict(),
            "phases": {},
        },
        {
            "name": f"serve.{preset}.p99",
            "repeats": len(client_p99s),
            "warmup": warmup_requests,
            "wall_s": SampleStats.from_samples(client_p99s).as_dict(),
            "cpu_s": SampleStats.from_samples(
                [cpu_per_request] * len(client_p99s)
            ).as_dict(),
            "phases": {},
        },
    ]
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench-run",
        "created_unix": round(
            time.time() if created_unix is None else created_unix, 3
        ),
        "environment": environment_fingerprint(planner_backend),
        "config": {
            "repeats": len(all_latencies),
            "warmup": warmup_requests,
            "scale": "loadgen",
        },
        "benchmarks": benchmarks,
        # Loadgen context; validate_bench checks its outcomes and
        # histograms.
        "loadgen": {
            "preset": preset,
            "clients": clients,
            "requests": len(all_latencies),
            "distinct": distinct,
            "seed": seed,
            "duration_s": round(duration_s, 6),
            "throughput_rps": round(len(all_latencies) / duration_s, 3)
            if duration_s > 0
            else 0.0,
            "p50_ms": round(_percentile(all_latencies, 50.0) * 1e3, 3),
            "p99_ms": round(_percentile(all_latencies, 99.0) * 1e3, 3),
            "outcomes": outcomes,
            "latency_histogram": latency_histogram.as_dict(),
        },
    }
    if server_elapsed_ms is not None:
        server_histogram = LogHistogram()
        for elapsed_ms in server_elapsed_ms:
            server_histogram.observe(elapsed_ms / 1e3)
        doc["loadgen"]["server_histogram"] = server_histogram.as_dict()
    return validate_bench(doc)


def run_loadgen(
    url: Optional[str] = None,
    preset: str = "demo",
    clients: int = 4,
    requests: int = 25,
    distinct: int = 1,
    seed: int = 0,
    app_params: Optional[dict] = None,
    planner_backend: Optional[str] = None,
    timeout_s: float = 600.0,
    log=None,
) -> dict:
    """Run the closed loop and return the validated bench document.

    With ``url=None`` an in-process daemon (NULL store, fresh tracer)
    is booted on an ephemeral port and torn down afterwards, so the
    measurement includes the full HTTP + service stack either way.
    """
    from repro.serve.client import ServeClient
    from repro.serve.server import start_server
    from repro.serve.service import PlanService

    emit = log if log is not None else (lambda message: None)
    schedule = request_schedule(clients, requests, distinct, seed)
    bodies = [build_request(preset, v, app_params) for v in range(distinct)]

    handle = None
    if url is None:
        service = PlanService(planner_backend=planner_backend)
        handle = start_server(service)
        url = handle.url
        emit(f"[loadgen] in-process daemon at {url}")
    try:
        client = ServeClient(url, timeout_s=timeout_s)
        emit(
            f"[loadgen] warming {distinct} fingerprint(s) of preset "
            f"{preset!r} ..."
        )
        server_elapsed_ms: List[float] = []
        for body in bodies:
            warm_response = client.plan(body)
            server_elapsed_ms.append(float(warm_response["elapsed_ms"]))
        emit(
            f"[loadgen] timed phase: {clients} client(s) x {requests} "
            "request(s)"
        )
        per_client_latencies: List[List[float]] = [[] for _ in range(clients)]
        per_client_outcomes: List[List[str]] = [[] for _ in range(clients)]
        per_client_elapsed: List[List[float]] = [[] for _ in range(clients)]
        errors: List[BaseException] = []
        barrier = threading.Barrier(clients + 1)

        def worker(index: int) -> None:
            worker_client = ServeClient(url, timeout_s=timeout_s)
            barrier.wait()
            for variant in schedule[index]:
                t0 = time.perf_counter()
                try:
                    response = worker_client.plan(bodies[variant])
                except BaseException as exc:  # surface, don't hang
                    errors.append(exc)
                    return
                per_client_latencies[index].append(time.perf_counter() - t0)
                per_client_outcomes[index].append(
                    response.get("served", "planned")
                )
                per_client_elapsed[index].append(
                    float(response.get("elapsed_ms", 0.0))
                )

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        cpu0 = time.process_time()
        barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        duration_s = time.perf_counter() - t0
        cpu_total = time.process_time() - cpu0
        if errors:
            raise RuntimeError(f"loadgen request failed: {errors[0]}") from errors[0]
    finally:
        if handle is not None:
            handle.close()

    for client_elapsed in per_client_elapsed:
        server_elapsed_ms.extend(client_elapsed)
    doc = build_loadgen_doc(
        preset=preset,
        per_client_latencies=per_client_latencies,
        per_client_cpu=[cpu_total],
        duration_s=duration_s,
        distinct=distinct,
        seed=seed,
        warmup_requests=distinct,
        planner_backend=planner_backend,
        per_client_outcomes=per_client_outcomes,
        server_elapsed_ms=server_elapsed_ms,
    )
    summary = doc["loadgen"]
    emit(
        "[loadgen] %d requests in %.3fs: %.1f req/s, p50 %.2fms, p99 %.2fms"
        % (
            summary["requests"],
            summary["duration_s"],
            summary["throughput_rps"],
            summary["p50_ms"],
            summary["p99_ms"],
        )
    )
    outcome_counts = summary["outcomes"]
    emit(
        "[loadgen] outcomes: "
        + " ".join(f"{tag}={outcome_counts[tag]}" for tag in OUTCOME_TAGS)
    )
    return doc


def write_doc(doc: dict, path: str) -> None:
    doccheck.write_json(path, validate_bench(doc), indent=1, newline=True)
