"""Every wall-clock span declares its pipeline phase.

A span's category is its phase (:data:`repro.obs.bench.PHASES`), set
where the span is emitted; the serve daemon's request spans keep
``serve`` and fold into ``other``.  The traced runs below cover the
spans the pipeline emits: fig2, fig3, suitability, a small fig5, the
audit behind ``ktiler explain`` and one served plan.  A span whose
category is neither a phase nor ``serve`` would fall silently into
``other``, so it fails here.

The phases used to come from a hand-kept span-name map.  That map is
kept below as the oracle: on the same events, attribution by category
must give the totals attribution by name gave, in the serve request
log's ``phases_ms`` and in a planner profile's ``phases``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.bench import PHASES, phase_breakdown
from repro.obs.tracer import Tracer

#: Span name -> phase, as the spans were attributed before they
#: declared their phase themselves.
_PHASE_BY_NAME = {
    "ktiler.instrument": "trace",
    "fig2.analyze": "trace",
    "ktiler.block_graph": "block_graph",
    "ktiler.mem_lines": "block_graph",
    "profiler.measure": "profile",
    "suitability.profile": "profile",
    "ktiler.plan": "partition",
    "tile.cluster": "tile",
    "tally_schedule": "replay",
    "audit.replay": "replay",
    "fig2.default": "replay",
    "fig2.tiled": "replay",
    "fig3.grid": "replay",
}

#: Categories a wall-clock span may declare.
_DECLARED = frozenset(PHASES) | {"serve"}


def _spans(events):
    return [e for e in events if e.get("ph") == "X"]


def _by_name(events, wall_s=None):
    """The oracle: the same breakdown with each span's phase looked up
    by its name."""
    return phase_breakdown(
        [dict(e, cat=_PHASE_BY_NAME.get(e["name"], "other"))
         for e in _spans(events)],
        wall_s=wall_s,
    )


def _run_fig2(tracer):
    from repro.experiments import run_fig2

    run_fig2(image_size=64, tracer=tracer)


def _run_fig3(tracer):
    from repro.experiments import run_fig3

    run_fig3(image_size=64, tracer=tracer)


def _run_suitability(tracer):
    from repro.experiments import run_suitability

    run_suitability(n_1d=1 << 14, image_size=64, tracer=tracer)


def _run_fig5(tracer):
    from repro.experiments import run_fig5

    run_fig5(frame_size=64, levels=1, jacobi_iters=2, tracer=tracer)


def _run_explain(tracer):
    from repro.core import KTiler, KTilerConfig
    from repro.experiments.presets import SCALED_SPEC
    from repro.obs.audit import audit_schedule
    from repro.serve.wire import build_preset_app

    ktiler = KTiler(
        build_preset_app("demo").graph,
        spec=SCALED_SPEC,
        config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
        tracer=tracer,
    )
    audit_schedule(ktiler, tracer=tracer)


_RUNS = {
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "suitability": _run_suitability,
    "fig5": _run_fig5,
    "explain": _run_explain,
}


@pytest.fixture(scope="module")
def served_plan():
    """One planned request through the daemon's service: its tracer
    and the structured log line it wrote."""
    from repro.obs.slog import SlogWriter
    from repro.serve.service import PlanService

    stream = io.StringIO()
    tracer = Tracer()
    service = PlanService(tracer=tracer, slog=SlogWriter(stream))
    service.plan({"app": {"preset": "demo"}}, request_id="phases-1")
    (line,) = stream.getvalue().splitlines()
    return tracer, json.loads(line)


@pytest.fixture(scope="module")
def traced_runs():
    """Each traced run's tracer, by run name."""
    runs = {}
    for name, run in _RUNS.items():
        runs[name] = Tracer()
        run(runs[name])
    return runs


class TestSpansDeclareTheirPhase:
    def test_the_runs_cover_every_pipeline_span(self, traced_runs, served_plan):
        names = {
            e["name"]
            for tracer in list(traced_runs.values()) + [served_plan[0]]
            for e in _spans(tracer.events)
        }
        assert set(_PHASE_BY_NAME) <= names, set(_PHASE_BY_NAME) - names

    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_every_span_category_is_a_phase(self, traced_runs, run):
        spans = _spans(traced_runs[run].events)
        assert spans, f"traced {run} emitted no spans"
        undeclared = sorted(
            {(e["name"], e["cat"]) for e in spans if e["cat"] not in _DECLARED}
        )
        assert not undeclared, f"{run}: spans without a phase: {undeclared}"

    def test_served_plan_spans_declare_their_phase(self, served_plan):
        tracer, _ = served_plan
        cats = {e["cat"] for e in _spans(tracer.events)}
        assert {"serve", "partition"} <= cats <= _DECLARED

    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_category_attribution_matches_the_name_map(self, traced_runs, run):
        events = traced_runs[run].events
        for e in _spans(events):
            expected = _PHASE_BY_NAME.get(e["name"], "other")
            got = e["cat"] if e["cat"] in PHASES else "other"
            assert got == expected, (run, e["name"], e["cat"])
        assert phase_breakdown(events, wall_s=1e3) == _by_name(
            events, wall_s=1e3
        )


class TestDocumentsKeepTheirTotals:
    def test_slog_phases_ms(self, served_plan):
        tracer, record = served_plan
        request_spans = [
            e for e in _spans(tracer.events)
            if e["args"].get("request_id") == "phases-1"
        ]
        expected = {
            phase: round(seconds * 1000.0, 3)
            for phase, seconds in _by_name(request_spans).items()
            if seconds > 0
        }
        assert record["phases_ms"] == expected
        assert "partition" in record["phases_ms"]

    def test_profile_phases(self):
        from repro.apps.synthetic import build_probe_graph
        from repro.obs.profile import profile_planner

        capture = profile_planner(build_probe_graph("chain", kernels=6))
        assert capture["phases"] == _by_name(
            capture["tracer"].events, wall_s=capture["wall_s"]
        )
        assert capture["phases"]["tile"] > 0.0
