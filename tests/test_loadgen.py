"""Load-generator tests: determinism and schema validity.

The loadgen's *request schedule* must be a pure function of its seed
(two runs issue identical request streams), and its output document
must satisfy the bench schema (:func:`repro.obs.bench.validate_bench`),
including the per-client-p99 benchmark row and the loadgen block.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import validate_bench
from repro.obs.histogram import LogHistogram
from repro.obs.loadgen import (
    FREQ_LADDER,
    build_loadgen_doc,
    build_request,
    request_schedule,
    run_loadgen,
)


class TestRequestSchedule:
    def test_deterministic_in_seed(self):
        assert request_schedule(4, 25, 3, 7) == request_schedule(4, 25, 3, 7)

    def test_different_seeds_differ(self):
        assert request_schedule(4, 25, 3, 7) != request_schedule(4, 25, 3, 8)

    def test_shape_and_range(self):
        schedule = request_schedule(3, 10, 2, 0)
        assert len(schedule) == 3
        assert all(len(client) == 10 for client in schedule)
        assert all(0 <= v < 2 for client in schedule for v in client)

    def test_single_variant_is_constant(self):
        schedule = request_schedule(2, 5, 1, 42)
        assert schedule == [[0] * 5, [0] * 5]

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            request_schedule(0, 1, 1, 0)
        with pytest.raises(ValueError):
            request_schedule(1, 1, len(FREQ_LADDER) + 1, 0)

    def test_build_request_walks_the_freq_ladder(self):
        first = build_request("demo", 0)
        second = build_request("demo", 1)
        assert first["freq"] != second["freq"]
        assert first["app"] == {"preset": "demo"}
        assert build_request("chain", 0, {"kernels": 4})["app"] == {
            "preset": "chain",
            "kernels": 4,
        }


def synthetic_doc(p99_tail_s: float, created_unix: float = 1_700_000_000.0):
    """A loadgen document from hand-built latencies: 2 clients x 100
    requests at ~1ms with the slowest 2% of each client's requests at
    the tail value, so the tail IS each client's p99 (with 100 samples,
    q=99 interpolates between the two largest order statistics)."""
    base = [0.001 + 1e-6 * (i % 7) for i in range(98)]
    per_client = [base + [p99_tail_s] * 2, base + [p99_tail_s] * 2]
    return build_loadgen_doc(
        preset="demo",
        per_client_latencies=per_client,
        per_client_cpu=[0.15],
        duration_s=0.25,
        distinct=1,
        seed=0,
        warmup_requests=1,
        created_unix=created_unix,
    )


class TestDocument:
    def test_schema_valid_and_pure(self):
        doc_a = synthetic_doc(0.002)
        doc_b = synthetic_doc(0.002)
        validate_bench(doc_a)
        assert doc_a == doc_b
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

    def test_benchmark_rows(self):
        doc = synthetic_doc(0.002)
        names = [b["name"] for b in doc["benchmarks"]]
        assert names == ["serve.demo.latency", "serve.demo.p99"]
        latency, p99 = doc["benchmarks"]
        assert latency["repeats"] == 200
        assert p99["repeats"] == 2
        summary = doc["loadgen"]
        assert summary["requests"] == 200
        assert summary["throughput_rps"] == pytest.approx(800.0)
        assert summary["p99_ms"] >= summary["p50_ms"]

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="no latencies"):
            build_loadgen_doc(
                preset="demo",
                per_client_latencies=[[]],
                per_client_cpu=[0.0],
                duration_s=0.0,
                distinct=1,
                seed=0,
                warmup_requests=0,
            )

    def test_default_outcomes_are_all_planned(self):
        doc = synthetic_doc(0.002)
        summary = doc["loadgen"]
        assert summary["outcomes"] == {
            "planned": 200, "memo": 0, "coalesced": 0
        }
        hist = LogHistogram.from_dict(summary["latency_histogram"])
        assert hist.count == 200
        assert "server_histogram" not in summary

    def test_explicit_outcomes_tallied(self):
        doc = build_loadgen_doc(
            preset="demo",
            per_client_latencies=[[0.001, 0.002], [0.003]],
            per_client_cpu=[0.01],
            duration_s=0.1,
            distinct=1,
            seed=0,
            warmup_requests=1,
            per_client_outcomes=[["planned", "memo"], ["coalesced"]],
            server_elapsed_ms=[1.0, 0.5, 0.4, 2.5],
            created_unix=1_700_000_000.0,
        )
        summary = doc["loadgen"]
        assert summary["outcomes"] == {
            "planned": 1, "memo": 1, "coalesced": 1
        }
        server = LogHistogram.from_dict(summary["server_histogram"])
        assert server.count == 4  # warm-up request included

    def test_outcome_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree in length"):
            build_loadgen_doc(
                preset="demo",
                per_client_latencies=[[0.001, 0.002]],
                per_client_cpu=[0.01],
                duration_s=0.1,
                distinct=1,
                seed=0,
                warmup_requests=0,
                per_client_outcomes=[["planned"]],
            )
        with pytest.raises(ValueError, match="unknown outcome"):
            build_loadgen_doc(
                preset="demo",
                per_client_latencies=[[0.001]],
                per_client_cpu=[0.01],
                duration_s=0.1,
                distinct=1,
                seed=0,
                warmup_requests=0,
                per_client_outcomes=[["teleported"]],
            )

    def test_v2_loadgen_block_is_validated(self):
        doc = synthetic_doc(0.002)
        broken = json.loads(json.dumps(doc))
        broken["loadgen"]["outcomes"]["planned"] = 1  # != requests
        with pytest.raises(ValueError, match="outcomes"):
            validate_bench(broken)
        broken = json.loads(json.dumps(doc))
        broken["loadgen"]["latency_histogram"]["count"] = 7
        with pytest.raises(ValueError, match="latency_histogram"):
            validate_bench(broken)


class TestCommittedBenchDocument:
    """benchmarks/BENCH_serve.json — the acceptance artifact."""

    def test_committed_fig5_loadgen_doc_is_valid_and_warm(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "BENCH_serve.json"
        doc = validate_bench(json.loads(path.read_text()))
        summary = doc["loadgen"]
        assert summary["preset"] == "fig5"
        assert summary["throughput_rps"] >= 250.0
        names = [b["name"] for b in doc["benchmarks"]]
        assert names == ["serve.fig5.latency", "serve.fig5.p99"]


class TestLiveRun:
    def test_seeded_run_emits_schema_valid_document(self):
        doc = run_loadgen(preset="demo", clients=2, requests=4, distinct=2,
                          seed=11)
        validate_bench(doc)
        summary = doc["loadgen"]
        assert summary["requests"] == 8
        assert summary["clients"] == 2
        assert summary["seed"] == 11
        assert summary["throughput_rps"] > 0
        names = [b["name"] for b in doc["benchmarks"]]
        assert names == ["serve.demo.latency", "serve.demo.p99"]
        assert doc["benchmarks"][0]["repeats"] == 8
        # Outcome decomposition covers every timed request; the warm
        # phase planned both fingerprints, so no timed request plans.
        outcomes = summary["outcomes"]
        assert sum(outcomes.values()) == 8
        assert outcomes["planned"] == 0
        assert outcomes["memo"] + outcomes["coalesced"] == 8
        client_hist = LogHistogram.from_dict(summary["latency_histogram"])
        assert client_hist.count == 8
        # Server-side histogram covers warm-up (2) + timed (8) requests.
        server_hist = LogHistogram.from_dict(summary["server_histogram"])
        assert server_hist.count == 10
