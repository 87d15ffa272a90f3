"""Tests for the statistical benchmark harness (``repro.obs.bench``).

Four attack surfaces, mirroring the house style of the neighboring
suites:

* **statistics oracles** — median/MAD/bootstrap-CI/outlier flags
  against hand-computed values and degenerate inputs (``test_audit``
  style unit oracles);
* **phase attribution** — synthetic nested span lists with known
  exclusive times, plus a real traced pipeline run covering every
  phase;
* **fingerprint key sensitivity** — every noise-key field must change
  the key, re-describing the identical environment must not, and the
  git sha must NOT be part of it (``test_store`` style);
* **the regression detector** — hypothesis properties: no false
  positives on stationary synthetic histories, injected step
  regressions always caught and attributed to the stepped phase.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_SUITE,
    MAD_TO_SIGMA,
    NOISE_KEY_FIELDS,
    PHASES,
    SampleStats,
    append_history,
    bootstrap_ci,
    compare_docs,
    environment_fingerprint,
    fingerprint_noise_key,
    load_history,
    mad,
    median,
    noise_band_s,
    outlier_indices,
    phase_breakdown,
    run_benchmark,
    run_suite,
    span_phase,
    validate_bench,
)
from repro.obs.bench_html import render_bench_html, write_bench
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
def _span(name, ts, dur, **args):
    return {"name": name, "cat": "x", "ph": "X", "ts": ts, "dur": dur,
            "args": args}


class TestPhaseAttribution:
    def test_span_phase_mapping(self):
        assert span_phase(_span("ktiler.instrument", 0, 1)) == "trace"
        assert span_phase(_span("ktiler.block_graph", 0, 1)) == "block_graph"
        assert span_phase(_span("profiler.measure", 0, 1)) == "profile"
        assert span_phase(_span("ktiler.plan", 0, 1)) == "partition"
        assert span_phase(_span("tile.cluster", 0, 1)) == "tile"
        assert span_phase(_span("tally_schedule", 0, 1)) == "replay"
        assert span_phase(_span("no.such.span", 0, 1)) is None

    def test_span_phase_bench_prefix_and_pool_labels(self):
        assert span_phase(_span("bench.replay", 0, 1)) == "replay"
        assert span_phase(_span("bench.nonsense", 0, 1)) is None
        assert span_phase(_span("parallel.map", 0, 1, label="profile")) == (
            "profile"
        )
        assert span_phase(_span("parallel.map", 0, 1, label="plan")) == (
            "partition"
        )
        assert span_phase(_span("parallel.map", 0, 1, label="???")) is None

    def test_exclusive_time_subtracts_children(self):
        # plan [0, 100ms] containing measure [10, 30] and tile [50, 20]:
        # partition gets 100 - 30 - 20 = 50ms exclusive.
        events = [
            _span("ktiler.plan", 0.0, 100_000.0),
            _span("profiler.measure", 10_000.0, 30_000.0),
            _span("tile.cluster", 50_000.0, 20_000.0),
        ]
        totals = phase_breakdown(events)
        assert totals["partition"] == pytest.approx(0.050)
        assert totals["profile"] == pytest.approx(0.030)
        assert totals["tile"] == pytest.approx(0.020)

    def test_deep_nesting_resolves_by_containment(self):
        # plan > tile > measure: each level keeps only its own time.
        events = [
            _span("ktiler.plan", 0.0, 90_000.0),
            _span("tile.cluster", 10_000.0, 60_000.0),
            _span("profiler.measure", 20_000.0, 30_000.0),
        ]
        totals = phase_breakdown(events)
        assert totals["partition"] == pytest.approx(0.030)
        assert totals["tile"] == pytest.approx(0.030)
        assert totals["profile"] == pytest.approx(0.030)

    def test_unknown_spans_and_wall_remainder_go_to_other(self):
        events = [_span("mystery", 0.0, 10_000.0)]
        totals = phase_breakdown(events, wall_s=0.025)
        assert totals["other"] == pytest.approx(0.025)  # 10ms span + 15ms gap

    def test_breakdown_partitions_the_wall_clock(self):
        events = [
            _span("ktiler.instrument", 0.0, 5_000.0),
            _span("ktiler.plan", 6_000.0, 20_000.0),
            _span("tile.cluster", 8_000.0, 4_000.0),
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
        for key in ("git_sha", "noise_key") + NOISE_KEY_FIELDS:
            assert key in fp, key
        assert fp["noise_key"] == fingerprint_noise_key(fp)

    def test_identical_environment_reproduces_the_key(self):
        assert (
            environment_fingerprint()["noise_key"]
            == environment_fingerprint()["noise_key"]
        )

    def test_every_noise_field_changes_the_key(self):
        base = environment_fingerprint()
        base_key = base["noise_key"]
        for field in NOISE_KEY_FIELDS:
            perturbed = dict(base)
            value = perturbed[field]
            if isinstance(value, int):
                perturbed[field] = value + 1
            else:
                perturbed[field] = str(value) + "-x"
            assert fingerprint_noise_key(perturbed) != base_key, (
                f"fingerprint field {field!r} does not affect the noise key"
            )

    def test_git_sha_is_not_part_of_the_noise_key(self):
        base = environment_fingerprint()
        perturbed = dict(base, git_sha="0" * 40)
        assert fingerprint_noise_key(perturbed) == base["noise_key"]

    def test_backend_and_workers_flow_into_the_fingerprint(self):
        fast = environment_fingerprint(workers=3, planner_backend="fast")
        ref = environment_fingerprint(workers=1, planner_backend="reference")
        assert fast["planner_backend"] == "fast" and fast["workers"] == 3
        assert ref["planner_backend"] == "reference" and ref["workers"] == 1
        assert fast["noise_key"] != ref["noise_key"]
        assert "sim_backend" not in fast


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class TestRunBenchmark:
    def test_counts_warmup_and_repeats(self):
        calls = []

        def fn(tracer):
            calls.append(tracer)
            with tracer.span("bench.replay", cat="bench"):
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


class TestRunSuite:
    def test_quick_subset_validates(self):
        doc = run_suite(
            names=["replay.raw"], scale="quick", repeats=2, warmup=0
        )
        assert validate_bench(doc) is doc
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        (bench,) = doc["benchmarks"]
        assert bench["name"] == "replay.raw"
        assert bench["phases"]["replay"]["median"] > 0.0

    def test_unknown_benchmark_and_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            run_suite(names=["no.such"], scale="quick")
        with pytest.raises(ValueError, match="unknown scale"):
            run_suite(scale="galactic")

    def test_registered_suite_covers_the_pipeline(self):
        assert set(BENCH_SUITE) == {
            "pipeline.plan", "hsopticalflow.plan", "pipeline.compare",
            "replay.raw",
        }


# ----------------------------------------------------------------------
# Synthetic documents for detector/history tests
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
            (lambda d: d["environment"].update(noise_key="bad"), "noise_key"),
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


class TestHistory:
    def test_round_trip_appends(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        a = _doc({"a": ([0.1, 0.2, 0.3], {})})
        b = _doc({"a": ([0.2, 0.3, 0.4], {})})
        append_history(path, a)
        append_history(path, b)
        runs = load_history(path)
        assert len(runs) == 2
        assert runs[0]["benchmarks"][0]["wall_s"]["median"] == 0.2

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(str(path), _doc({"a": ([0.1, 0.2, 0.3], {})}))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
            fh.write('{"kind": "foreign"}\n')
            fh.write("\n")
        append_history(str(path), _doc({"a": ([0.1, 0.2, 0.3], {})}))
        assert len(load_history(str(path))) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []


# ----------------------------------------------------------------------
# The regression detector
# ----------------------------------------------------------------------
class TestRegressionDetector:
    def test_identical_docs_are_clean(self):
        doc = _doc({"a": ([0.1, 0.11, 0.12], {"replay": (0.1, 0.005)})})
        report = compare_docs(doc, doc)
        assert report.ok and report.fingerprint_match
        (delta,) = report.deltas
        assert not delta.regressed and not delta.improved

    def test_step_regression_is_caught_and_attributed(self):
        base = _doc({
            "a": (
                [0.100, 0.102, 0.101],
                {"profile": (0.06, 0.001), "replay": (0.04, 0.001)},
            ),
        })
        cur = _doc({
            "a": (
                [0.200, 0.202, 0.201],
                {"profile": (0.16, 0.001), "replay": (0.04, 0.001)},
            ),
        })
        report = compare_docs(base, cur)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.name == "a"
        assert delta.phase == "profile"
        assert delta.phase_delta_s == pytest.approx(0.10, abs=1e-6)
        assert "REGRESSED" in report.format_table()
        assert "profile" in report.format_table()

    def test_improvement_is_not_a_regression(self):
        base = _doc({"a": ([0.2, 0.21, 0.2], {})})
        cur = _doc({"a": ([0.1, 0.11, 0.1], {})})
        report = compare_docs(base, cur)
        assert report.ok
        assert report.deltas[0].improved

    def test_fingerprint_mismatch_is_reported(self):
        other_env = dict(_ENV, workers=_ENV["workers"] + 7)
        other_env["noise_key"] = fingerprint_noise_key(other_env)
        base = _doc({"a": ([0.1, 0.1, 0.1], {})})
        cur = _doc({"a": ([0.1, 0.1, 0.1], {})}, env=other_env)
        assert not compare_docs(base, cur).fingerprint_match

    def test_disjoint_benchmarks_are_listed_not_compared(self):
        base = _doc({"a": ([0.1, 0.1, 0.1], {})})
        cur = _doc({"b": ([0.1, 0.1, 0.1], {})})
        report = compare_docs(base, cur)
        assert report.ok
        assert report.only_in_baseline == ["a"]
        assert report.only_in_current == ["b"]

    def test_band_floors(self):
        # Tight MADs: the relative floor dominates.
        assert noise_band_s(1.0, 0.0, 0.0, rel_tol=0.05) == pytest.approx(0.05)
        # Tiny benchmark: the absolute floor dominates.
        assert noise_band_s(0.001, 0.0, 0.0) == pytest.approx(1e-3)
        # Noisy either side: the worse MAD drives the band.
        assert noise_band_s(1.0, 0.01, 0.09, k_sigma=3.0) == pytest.approx(
            3.0 * MAD_TO_SIGMA * 0.09
        )

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0), min_size=3, max_size=9
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_false_positives_on_stationary_histories(self, xs, rnd):
        """Re-measuring the same distribution never trips the detector.

        The current run is a reshuffle of the baseline's own samples
        with sub-band multiplicative jitter — exactly what re-running
        an unchanged benchmark on the same machine produces.
        """
        ys = [x * (1.0 + rnd.uniform(-0.01, 0.01)) for x in xs]
        rnd.shuffle(ys)
        base = _doc({"a": (xs, {})})
        cur = _doc({"a": (ys, {})})
        assert compare_docs(base, cur, rel_tol=0.05).ok

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0), min_size=3, max_size=9
        ),
        st.floats(min_value=1.2, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_injected_steps_are_always_caught(self, xs, factor):
        """A step beyond the noise band must always regress.

        The step is constructed from the detector's own band (times a
        >1 factor), so the property holds for any sample shape: an
        adaptive detector that widened its band to excuse the step
        would fail here.
        """
        base_stats = SampleStats.from_samples(xs)
        band = noise_band_s(base_stats.median, base_stats.mad, base_stats.mad)
        step = band * factor
        base = _doc({"a": (xs, {})})
        cur = _doc({"a": ([x + step for x in xs], {})})
        report = compare_docs(base, cur)
        assert not report.ok
        assert report.regressions[0].name == "a"


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    def test_render_requires_a_valid_doc(self):
        with pytest.raises(ValueError):
            render_bench_html({"kind": "bench-run"})

    def test_render_basic_structure(self):
        doc = _doc({
            "a": ([0.1, 0.11, 0.12], {"replay": (0.08, 0.002)}),
        })
        html_text = render_bench_html(doc)
        assert "ktiler bench dashboard" in html_text
        assert "phasebar" in html_text
        assert "replay" in html_text
        assert "<script" not in html_text  # self-contained, no JS

    def test_history_draws_a_sparkline(self):
        older = _doc({"a": ([0.1, 0.1, 0.1], {})})
        doc = _doc({"a": ([0.11, 0.11, 0.11], {})})
        assert "<svg" in render_bench_html(doc, history=[older])
        assert "<svg" not in render_bench_html(doc, history=[])

    def test_foreign_fingerprint_history_is_excluded(self):
        other_env = dict(_ENV, workers=_ENV["workers"] + 3)
        other_env["noise_key"] = fingerprint_noise_key(other_env)
        foreign = _doc({"a": ([0.1, 0.1, 0.1], {})}, env=other_env)
        doc = _doc({"a": ([0.11, 0.11, 0.11], {})})
        assert "<svg" not in render_bench_html(doc, history=[foreign])

    def test_regression_callout_names_the_phase(self):
        base = _doc({
            "a": (
                [0.100, 0.102, 0.101],
                {"profile": (0.06, 0.001)},
            ),
        })
        cur = _doc({
            "a": (
                [0.300, 0.302, 0.301],
                {"profile": (0.26, 0.001)},
            ),
        })
        report = compare_docs(base, cur)
        html_text = render_bench_html(cur, compare=report)
        assert "REGRESSED" in html_text
        assert "profile" in html_text
        assert "callout" in html_text

    def test_work_digest_rendered_when_present(self):
        doc = _doc({"a": ([0.1, 0.11, 0.12], {})})
        doc["benchmarks"][0]["work"] = {"merge_probes": 55, "weight_evals": 7}
        html_text = render_bench_html(doc)
        assert "planner work:" in html_text
        assert "merge_probes 55" in html_text
        assert "planner work:" not in render_bench_html(
            _doc({"a": ([0.1, 0.11, 0.12], {})})
        )

    def test_write_bench_emits_everything(self, tmp_path):
        doc = _doc({"a": ([0.1, 0.11, 0.12], {})})
        json_path = str(tmp_path / "bench.json")
        html_path = str(tmp_path / "bench.html")
        hist_path = str(tmp_path / "hist.jsonl")
        written = write_bench(
            doc, json_path=json_path, html_path=html_path,
            history_path=hist_path,
        )
        assert written == [json_path, html_path, hist_path]
        assert validate_bench(json.load(open(json_path)))
        assert len(load_history(hist_path)) == 1
        # Second write: the dashboard now has a one-point history, and
        # the history gains a second line.
        write_bench(doc, html_path=html_path, history_path=hist_path)
        assert len(load_history(hist_path)) == 2
