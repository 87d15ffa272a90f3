"""Tests for the benchmark statistics (``repro.obs.bench``).

Four attack surfaces, mirroring the house style of the neighboring
suites:

* **statistics oracles** — median/MAD/bootstrap-CI/outlier flags
  against hand-computed values and degenerate inputs (``test_audit``
  style unit oracles);
* **phase attribution** — synthetic nested span lists with known
  exclusive times, plus a real traced pipeline run covering every
  phase;
* **environment fingerprint** — every recorded field is present and
  the planner backend is the resolved one;
* **the document schema** — :func:`validate_bench` accepts a valid
  bench-run document and names the first violation of a broken one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    ENVIRONMENT_FIELDS,
    PHASES,
    SampleStats,
    bootstrap_ci,
    environment_fingerprint,
    mad,
    median,
    outlier_indices,
    phase_breakdown,
    run_benchmark,
    validate_bench,
)
from repro.obs.tracer import Tracer


# ----------------------------------------------------------------------
# Statistics oracles
# ----------------------------------------------------------------------
class TestStatsOracles:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_mad_hand_computed(self):
        # median = 3, |x - 3| = [2, 1, 0, 1, 2] -> MAD = 1
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
        assert mad([7.0, 7.0, 7.0]) == 0.0

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            mad([])
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bootstrap_ci_is_deterministic_and_ordered(self):
        xs = [0.10, 0.11, 0.12, 0.10, 0.13, 0.11]
        lo1, hi1 = bootstrap_ci(xs)
        lo2, hi2 = bootstrap_ci(xs)
        assert (lo1, hi1) == (lo2, hi2)
        assert min(xs) <= lo1 <= hi1 <= max(xs)

    def test_bootstrap_ci_contains_the_median(self):
        xs = [0.10, 0.11, 0.12, 0.10, 0.13, 0.11, 0.12]
        lo, hi = bootstrap_ci(xs)
        assert lo <= median(xs) <= hi

    def test_bootstrap_ci_single_sample_degenerates(self):
        assert bootstrap_ci([0.5]) == (0.5, 0.5)

    def test_bootstrap_ci_narrows_with_confidence(self):
        xs = [0.10, 0.15, 0.12, 0.09, 0.13, 0.11, 0.14, 0.10]
        lo95, hi95 = bootstrap_ci(xs, confidence=0.95)
        lo50, hi50 = bootstrap_ci(xs, confidence=0.50)
        assert hi50 - lo50 <= hi95 - lo95

    def test_outlier_flags_injected_spike(self):
        xs = [0.10, 0.11, 0.10, 0.12, 0.11, 5.0]
        assert outlier_indices(xs) == [5]

    def test_outliers_empty_on_constant_and_tight_samples(self):
        assert outlier_indices([1.0, 1.0, 1.0]) == []
        assert outlier_indices([0.10, 0.11, 0.10, 0.12]) == []

    def test_sample_stats_bundle(self):
        stats = SampleStats.from_samples([0.3, 0.1, 0.2])
        assert stats.median == 0.2
        assert stats.min == 0.1 and stats.max == 0.3
        assert stats.ci95[0] <= stats.median <= stats.ci95[1]
        d = stats.as_dict()
        assert set(d) == {
            "samples", "median", "mad", "mean", "min", "max", "ci95",
            "outliers",
        }

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_median_between_min_and_max(self, xs):
        assert min(xs) <= median(xs) <= max(xs)
        assert mad(xs) >= 0.0


# ----------------------------------------------------------------------
# Phase attribution
# ----------------------------------------------------------------------
def _span(name, phase, ts, dur, **args):
    """A wall-clock span declaring ``phase`` as its category."""
    return {"name": name, "cat": phase, "ph": "X", "ts": ts, "dur": dur,
            "args": args}


class TestPhaseAttribution:
    def test_span_phase_mapping(self):
        # A span's category is its phase, whatever its name; any other
        # category (the serve request spans' "serve") counts as other.
        for phase in PHASES:
            totals = phase_breakdown([_span("any.name", phase, 0.0, 1_000.0)])
            assert totals[phase] == pytest.approx(0.001), phase
            assert sum(totals.values()) == pytest.approx(0.001)
        for cat in ("serve", "app", None):
            totals = phase_breakdown([_span("ktiler.plan", cat, 0.0, 1_000.0)])
            assert totals["other"] == pytest.approx(0.001), cat

    def test_exclusive_time_subtracts_children(self):
        # plan [0, 100ms] containing measure [10, 30] and tile [50, 20]:
        # partition gets 100 - 30 - 20 = 50ms exclusive.
        events = [
            _span("ktiler.plan", "partition", 0.0, 100_000.0),
            _span("profiler.measure", "profile", 10_000.0, 30_000.0),
            _span("tile.cluster", "tile", 50_000.0, 20_000.0),
        ]
        totals = phase_breakdown(events)
        assert totals["partition"] == pytest.approx(0.050)
        assert totals["profile"] == pytest.approx(0.030)
        assert totals["tile"] == pytest.approx(0.020)

    def test_deep_nesting_resolves_by_containment(self):
        # plan > tile > measure: each level keeps only its own time.
        events = [
            _span("ktiler.plan", "partition", 0.0, 90_000.0),
            _span("tile.cluster", "tile", 10_000.0, 60_000.0),
            _span("profiler.measure", "profile", 20_000.0, 30_000.0),
        ]
        totals = phase_breakdown(events)
        assert totals["partition"] == pytest.approx(0.030)
        assert totals["tile"] == pytest.approx(0.030)
        assert totals["profile"] == pytest.approx(0.030)

    def test_unknown_spans_and_wall_remainder_go_to_other(self):
        events = [_span("mystery", "mystery", 0.0, 10_000.0)]
        totals = phase_breakdown(events, wall_s=0.025)
        assert totals["other"] == pytest.approx(0.025)  # 10ms span + 15ms gap

    def test_breakdown_partitions_the_wall_clock(self):
        events = [
            _span("ktiler.instrument", "trace", 0.0, 5_000.0),
            _span("ktiler.plan", "partition", 6_000.0, 20_000.0),
            _span("tile.cluster", "tile", 8_000.0, 4_000.0),
        ]
        wall = 0.030
        totals = phase_breakdown(events, wall_s=wall)
        assert sum(totals.values()) == pytest.approx(wall)

    def test_real_pipeline_covers_the_phases(self):
        from repro.apps import build_pipeline
        from repro.core import KTiler, KTilerConfig
        from repro.gpusim.freq import NOMINAL

        tracer = Tracer()
        app = build_pipeline(size=64)
        KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            tracer=tracer,
        ).plan(NOMINAL)
        totals = phase_breakdown(tracer.events)
        for phase in ("trace", "block_graph", "profile", "partition", "tile"):
            assert totals[phase] > 0.0, (phase, totals)


# ----------------------------------------------------------------------
# Environment fingerprint (test_store key-sensitivity style)
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_fingerprint_has_every_field(self):
        fp = environment_fingerprint()
        assert set(fp) == set(ENVIRONMENT_FIELDS)

    def test_planner_backend_flows_into_the_fingerprint(self):
        fast = environment_fingerprint(planner_backend="fast")
        ref = environment_fingerprint(planner_backend="reference")
        assert fast["planner_backend"] == "fast"
        assert ref["planner_backend"] == "reference"
        assert "sim_backend" not in fast


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class TestRunBenchmark:
    def test_counts_warmup_and_repeats(self):
        calls = []

        def fn(tracer):
            calls.append(tracer)
            with tracer.span("tally_schedule", cat="replay"):
                pass

        result = run_benchmark("x", fn, repeats=4, warmup=2)
        assert len(calls) == 6
        assert result.repeats == 4 and result.warmup == 2
        assert len(result.wall.samples) == 4
        assert len(result.cpu.samples) == 4
        assert "replay" in result.phases

    def test_each_repeat_gets_a_fresh_tracer(self):
        seen = []

        def fn(tracer):
            assert not tracer.events
            seen.append(tracer)

        run_benchmark("x", fn, repeats=3, warmup=1)
        assert len({id(t) for t in seen}) == 4

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_benchmark("x", lambda tracer: None, repeats=0)

    def test_as_dict_shape(self):
        result = run_benchmark("x", lambda tracer: None, repeats=2, warmup=0)
        d = result.as_dict()
        assert d["name"] == "x"
        assert set(d) == {
            "name", "repeats", "warmup", "wall_s", "cpu_s", "phases",
        }
        # a fn that plans nothing leaves no planner.* families behind
        assert result.work == {}

    def test_work_counters_captured_from_a_planning_fn(self):
        from repro.apps.synthetic import build_probe_graph
        from repro.core import KTiler, KTilerConfig
        from repro.gpusim import GpuSpec

        app = build_probe_graph("chain", kernels=6)
        spec = GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0)
        config = KTilerConfig(launch_overhead_us=2.0)

        def fn(tracer):
            KTiler(app.graph, spec, config, tracer=tracer).plan()

        result = run_benchmark("plan", fn, repeats=2, warmup=0)
        assert result.work["merge_probes"] > 0
        assert result.as_dict()["work"] == result.work


# ----------------------------------------------------------------------
# Synthetic documents for the schema tests
# ----------------------------------------------------------------------
_ENV = environment_fingerprint()


def _doc(benchmarks, env=None):
    """A valid bench-run document from {name: (samples, phases)}."""
    return validate_bench({
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench-run",
        "created_unix": 0.0,
        "environment": dict(env or _ENV),
        "config": {"repeats": 3, "warmup": 0, "scale": "quick"},
        "benchmarks": [
            {
                "name": name,
                "repeats": len(samples),
                "warmup": 0,
                "wall_s": SampleStats.from_samples(samples).as_dict(),
                "cpu_s": SampleStats.from_samples(samples).as_dict(),
                "phases": {
                    phase: {"median": m, "mad": d}
                    for phase, (m, d) in phases.items()
                },
            }
            for name, (samples, phases) in benchmarks.items()
        ],
    })


class TestValidateBench:
    def test_accepts_real_and_synthetic_docs(self):
        _doc({"a": ([0.1, 0.2, 0.3], {"replay": (0.1, 0.01)})})

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(kind="other"), "kind"),
            (lambda d: d.pop("environment"), "environment"),
            (lambda d: d["environment"].pop("cpu_count"), "cpu_count"),
            (lambda d: d.update(benchmarks=[]), "benchmarks"),
            (
                lambda d: d["benchmarks"][0].pop("wall_s"),
                "wall_s",
            ),
            (
                lambda d: d["benchmarks"][0]["phases"].update(warp={}),
                "phase",
            ),
            (
                lambda d: d.update(benchmarks=d["benchmarks"] * 2),
                "duplicate",
            ),
            (
                lambda d: d["benchmarks"][0].update(work="lots"),
                "work",
            ),
            (
                lambda d: d["benchmarks"][0].update(work={"merge_probes": -1}),
                "work",
            ),
        ],
    )
    def test_rejects_malformed_documents(self, mutate, message):
        doc = json.loads(json.dumps(
            _doc({"a": ([0.1, 0.2, 0.3], {"replay": (0.1, 0.01)})})
        ))
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            validate_bench(doc)

    def test_rejects_repeats_sample_mismatch(self):
        doc = _doc({"a": ([0.1, 0.2, 0.3], {})})
        doc = json.loads(json.dumps(doc))
        doc["benchmarks"][0]["repeats"] = 5
        with pytest.raises(ValueError, match="sample count"):
            validate_bench(doc)
