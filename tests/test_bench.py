"""Tests for the timed loop and phase attribution (``repro.obs.bench``).

Four attack surfaces, mirroring the house style of the neighboring
suites:

* **statistics oracles** — median/MAD against hand-computed values and
  degenerate inputs (``test_audit`` style unit oracles);
* **phase attribution** — synthetic nested span lists with known
  exclusive times, plus a real traced pipeline run covering every
  phase;
* **environment fingerprint** — every recorded field is present and
  the planner backend is the resolved one;
* **the timed loop** — :func:`run_benchmark` makes its warmup calls,
  gives every call a fresh tracer, and keeps per repeat the wall time,
  the phase breakdown and what the callable returned.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bench import (
    ENVIRONMENT_FIELDS,
    PHASES,
    environment_fingerprint,
    mad,
    median,
    phase_breakdown,
    run_benchmark,
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
            return len(calls)

        runs = run_benchmark(fn, repeats=4, warmup=2)
        assert len(calls) == 6
        assert [run.value for run in runs] == [3, 4, 5, 6]
        for run in runs:
            assert set(run.phases) == set(PHASES)
            assert run.phases["replay"] > 0.0
            assert sum(run.phases.values()) == pytest.approx(run.wall_s)

    def test_each_repeat_gets_a_fresh_tracer(self):
        seen = []

        def fn(tracer):
            assert not tracer.events
            seen.append(tracer)

        run_benchmark(fn, repeats=3, warmup=1)
        assert len({id(t) for t in seen}) == 4

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_benchmark(lambda tracer: None, repeats=0)

    def test_work_counters_captured_from_a_planning_fn(self):
        """A repeat keeps what the callable returns: here the plan's
        work dict, the same in every repeat, and never the plan."""
        from repro.apps.synthetic import build_probe_graph
        from repro.core import KTiler, KTilerConfig
        from repro.gpusim import GpuSpec

        app = build_probe_graph("chain", kernels=6)
        spec = GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0)
        config = KTilerConfig(launch_overhead_us=2.0)

        def fn(tracer):
            plan = KTiler(app.graph, spec, config, tracer=tracer).plan()
            return plan.stats.work.as_dict()

        runs = run_benchmark(fn, repeats=2, warmup=0)
        assert runs[0].value["merge_probes"] > 0
        assert runs[1].value == runs[0].value
        assert runs[0].phases["partition"] > 0.0
