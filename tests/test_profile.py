"""Tests for the planner observatory (``repro.obs.profile``).

Five attack surfaces:

* **the work-counter contract** — planner work counters must be
  non-zero where the topology exercises them, and must survive the
  artifact store round-trip (warm-cache plans report the same work as
  the cold plan that produced them);
* **the stack profiler** — frame capture, pause/resume gating, span
  scoping, and the collapsed-stack export format;
* **exponent fitting** — exact recovery on synthetic power laws,
  degenerate-input refusals, deterministic zero-width CIs;
* **profile documents** — schema validation accepts what
  ``build_profile_doc`` emits and rejects each malformed mutation;
  exponent-drift comparison flags real drift and nothing else;
* **the CLI** — ``ktiler profile`` writes validated artifacts and
  turns drift into the documented exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.synthetic import (
    MAX_PROBE_KERNELS,
    PROBE_SHAPES,
    build_jacobi_pingpong,
    build_probe_graph,
)
from repro.cli import main
from repro.core import KTiler, KTilerConfig, PlannerWork, WORK_COUNTER_FAMILIES
from repro.errors import ConfigurationError
from repro.gpusim import GpuSpec
from repro.obs.pages import render_profile_html
from repro.obs.profile import (
    DEFAULT_SWEEP_SIZES,
    PROFILE_SCHEMA_VERSION,
    StackProfiler,
    build_profile_doc,
    collapsed_stacks,
    compare_exponents,
    fit_exponent,
    load_profile,
    profile_planner,
    run_sweep,
    scope_profiler_to_spans,
    validate_profile,
    write_profile,
)
from repro.obs.tracer import Tracer
from repro.store import ArtifactStore

SMALL_SPEC = GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0)
CONFIG = KTilerConfig(launch_overhead_us=2.0)


def _plan_work(app, store=None) -> dict:
    ktiler = KTiler(app.graph, SMALL_SPEC, CONFIG, store=store)
    return ktiler.plan().stats.work.as_dict()


# ----------------------------------------------------------------------
# The work-counter contract
# ----------------------------------------------------------------------
class TestPlannerWork:
    def test_dataclass_roundtrip_and_add(self):
        a = PlannerWork(blocks_visited=3, merge_probes=5)
        b = PlannerWork.from_dict(a.as_dict())
        assert b == a
        b.add(PlannerWork(blocks_visited=1))
        assert b.blocks_visited == 4 and a.blocks_visited == 3
        assert b.total() == 4 + 5

    def test_from_dict_ignores_unknown_counters(self):
        w = PlannerWork.from_dict({"merge_probes": 2, "from_the_future": 9})
        assert w.merge_probes == 2

    def test_families_cover_every_field(self):
        names = set(PlannerWork().as_dict())
        assert {f.split(".", 1)[1] for f in WORK_COUNTER_FAMILIES} == names

    def test_counters_fire_on_a_chain(self):
        work = _plan_work(build_probe_graph("chain", kernels=8))
        for counter in (
            "blocks_visited", "footprint_unions", "footprint_lines",
            "merge_probes", "perftable_queries", "weight_evals",
            "edges_weighted",
        ):
            assert work[counter] > 0, counter

    def test_frontier_updates_fire_on_stencil_dependencies(self):
        # Pointwise chains never leave a block uncovered; the Jacobi
        # ping-pong's stencil reads do, exercising the frontier dicts.
        work = _plan_work(build_jacobi_pingpong(iters=3, size=64))
        assert work["frontier_updates"] > 0

    def test_work_survives_the_artifact_store(self, tmp_path):
        app = build_probe_graph("grid", kernels=9)
        store = ArtifactStore(tmp_path)
        cold = _plan_work(app, store=store)
        warm = _plan_work(app, store=store)
        assert warm == cold and cold["footprint_unions"] > 0

    def test_traced_plan_emits_planner_metrics(self):
        app = build_probe_graph("chain", kernels=6)
        tracer = Tracer()
        KTiler(app.graph, SMALL_SPEC, CONFIG, tracer=tracer).plan()
        for family in WORK_COUNTER_FAMILIES:
            assert family in tracer.metrics, family
        track = [
            ev for ev in tracer.sim_events
            if ev.get("name") == "planner.work"
        ]
        assert track, "planner.work counter track missing from the trace"
        # Ordinal timestamps: strictly increasing, one per evaluation
        # plus the closing sample.
        stamps = [ev["ts"] for ev in track]
        assert stamps == sorted(stamps)


# ----------------------------------------------------------------------
# Stack profiler
# ----------------------------------------------------------------------
def _leaf():
    return sum(range(2000))


def _caller():
    return _leaf() + _leaf()


class TestStackProfiler:
    def test_captures_nested_stacks(self):
        with StackProfiler() as prof:
            _caller()
        labels = {frame["stack"][-1] for frame in prof.frames()}
        assert any("_leaf" in label for label in labels)
        assert any("_caller" in label for label in labels)
        assert prof.total_us > 0.0

    def test_paused_profiler_records_nothing(self):
        prof = StackProfiler(paused=True)
        with prof:
            _caller()
        assert prof.frames() == []

    def test_pause_resume_gates_attribution(self):
        prof = StackProfiler(paused=True)
        with prof:
            _caller()          # paused: invisible
            prof.resume()
            _caller()          # recorded
            prof.pause()
            _caller()          # paused again
        calls = sum(
            frame["calls"] for frame in prof.frames()
            if "_leaf" in frame["stack"][-1]
        )
        assert calls == 2

    def test_span_scoping_records_only_named_spans(self):
        tracer = Tracer()
        prof = StackProfiler(paused=True)
        scope_profiler_to_spans(tracer, prof, ["hot"])
        with prof:
            with tracer.span("cold"):
                _caller()
            with tracer.span("hot"):
                _caller()
        calls = sum(
            frame["calls"] for frame in prof.frames()
            if "_leaf" in frame["stack"][-1]
        )
        assert calls == 2

    def test_collapsed_stack_format(self):
        frames = [
            {"stack": ["a", "b"], "self_us": 12.6, "calls": 1},
            {"stack": ["a"], "self_us": 3.2, "calls": 2},
            {"stack": ["z"], "self_us": 0.0, "calls": 5},  # dropped
        ]
        text = collapsed_stacks(frames)
        assert text == "a 3\na;b 13\n"

    def test_emit_counters_adds_depth_track(self):
        tracer = Tracer()
        with StackProfiler() as prof:
            for _ in range(200):
                _caller()
        emitted = prof.emit_counters(tracer)
        assert emitted > 0
        depth_events = [
            ev for ev in tracer.events
            if ev.get("name") == "profile.stack_depth"
        ]
        assert len(depth_events) == emitted


# ----------------------------------------------------------------------
# Exponent fitting
# ----------------------------------------------------------------------
class TestFitExponent:
    def test_recovers_exact_power_law(self):
        sizes = [8, 16, 32, 64]
        samples = [[3.0 * n ** 2] * 3 for n in sizes]
        fit = fit_exponent(sizes, samples)
        assert fit["exponent"] == pytest.approx(2.0, abs=1e-6)
        assert fit["r2"] == pytest.approx(1.0)
        # deterministic series -> zero-width CI
        assert fit["ci95"][0] == pytest.approx(fit["ci95"][1], abs=1e-9)

    def test_refuses_degenerate_series(self):
        assert fit_exponent([8], [[1.0]]) is None
        assert fit_exponent([8, 16], [[1.0], [0.0]]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_exponent([8, 16], [[1.0]])

    def test_noisy_samples_widen_the_ci(self):
        sizes = [8, 16, 32, 64]
        tight = [[float(n)] * 4 for n in sizes]
        noisy = [[n * f for f in (0.5, 1.0, 1.5, 2.0)] for n in sizes]
        w_tight = fit_exponent(sizes, tight)["ci95"]
        w_noisy = fit_exponent(sizes, noisy)["ci95"]
        assert (w_noisy[1] - w_noisy[0]) > (w_tight[1] - w_tight[0])


# ----------------------------------------------------------------------
# Probe graphs
# ----------------------------------------------------------------------
class TestProbeGraphs:
    @pytest.mark.parametrize("shape", PROBE_SHAPES)
    @pytest.mark.parametrize("kernels", [1, 2, 7, 16, 25])
    def test_exact_node_count(self, shape, kernels):
        app = build_probe_graph(shape, kernels=kernels)
        assert len(list(app.graph)) == kernels

    def test_seed_changes_factors_not_structure(self):
        a = build_probe_graph("chain", kernels=6, seed=0)
        b = build_probe_graph("chain", kernels=6, seed=1)
        assert [n.name for n in a.graph] == [n.name for n in b.graph]

        def factors(app):
            return [
                n.kernel.scale for n in app.graph
                if hasattr(n.kernel, "scale")
            ]

        assert factors(a) != factors(b)
        assert factors(a) == factors(build_probe_graph("chain", kernels=6))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_probe_graph("torus", kernels=8)
        with pytest.raises(ConfigurationError):
            build_probe_graph("chain", kernels=0)
        with pytest.raises(ConfigurationError):
            build_probe_graph("chain", kernels=MAX_PROBE_KERNELS + 1)


# ----------------------------------------------------------------------
# Profile documents and drift
# ----------------------------------------------------------------------
#: The exact work of the ``chain_profile_doc`` sweep (chain 6/10/14,
#: ``SMALL_SPEC``) per ladder point, by resolved planner backend.  The
#: two planners share every counter but ``merge_probes`` (the reference
#: planner's BFS against the fast planner's word-counted bitsets) and
#: ``reach_repairs`` (fast only).
_SHARED_SWEEP_WORK = {
    "blocks_visited": (40, 72, 104),
    "edges_weighted": (5, 9, 13),
    "footprint_lines": (448, 832, 1216),
    "footprint_unions": (20, 36, 52),
    "frontier_updates": (0, 0, 0),
    "perftable_queries": (10, 18, 26),
    "weight_evals": (5, 9, 13),
}
SWEEP_WORK = {
    "reference": {
        **_SHARED_SWEEP_WORK,
        "merge_probes": (10, 36, 78),
        "reach_repairs": (0, 0, 0),
    },
    "fast": {
        **_SHARED_SWEEP_WORK,
        "merge_probes": (10, 18, 26),
        "reach_repairs": (12, 20, 28),
    },
}
#: (exponent, r2) of each fitted work series; a series with a zero
#: median (``frontier_updates`` everywhere, ``reach_repairs`` under the
#: reference planner) has no fit.
_SHARED_SWEEP_FITS = {
    "blocks_visited": (1.1296, 0.9998),
    "edges_weighted": (1.1296, 0.9998),
    "footprint_lines": (1.1812, 0.9996),
    "footprint_unions": (1.1296, 0.9998),
    "perftable_queries": (1.1296, 0.9998),
    "weight_evals": (1.1296, 0.9998),
}
SWEEP_FITS = {
    "reference": {**_SHARED_SWEEP_FITS, "merge_probes": (2.4311, 0.9994)},
    "fast": {
        **_SHARED_SWEEP_FITS,
        "merge_probes": (1.1296, 0.9998),
        "reach_repairs": (1.0, 1.0),
    },
}


@pytest.fixture(scope="module")
def chain_profile_doc():
    """One capture + sweep document shared by the schema tests."""
    app = build_probe_graph("chain", kernels=10)
    capture = profile_planner(app, spec=SMALL_SPEC)
    sweep = run_sweep(
        "chain", sizes=(6, 10, 14), repeats=2, warmup=0, spec=SMALL_SPEC
    )
    return build_profile_doc("probe-chain10", capture=capture, sweep=sweep)


class TestProfileDocuments:
    def test_doc_validates_and_roundtrips(self, chain_profile_doc, tmp_path):
        doc = chain_profile_doc
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        assert doc["profile"]["engine"] == "stack"
        assert doc["work"]["merge_probes"] > 0
        path = tmp_path / "profile.json"
        write_profile(str(path), doc)
        assert load_profile(str(path)) == doc

    def test_sweep_section_shape(self, chain_profile_doc):
        sweep = chain_profile_doc["sweep"]
        assert sweep["sizes"] == [6, 10, 14]
        assert [p["kernels"] for p in sweep["points"]] == sweep["sizes"]
        exps = sweep["exponents"]
        # The work-counter fits are exact, so their r² does not depend
        # on the host; the wall-time fit's does, and its r² guard is
        # benchmarks/test_perf_sweep_fit.py (perf-marked).
        for counter in ("blocks_visited", "merge_probes"):
            assert exps["work"][counter]["r2"] > 0.5, counter
        # Work exponents are exact. The reference planner's BFS makes
        # merge probing the one superlinear chain phase; the fast
        # planner's bitset probes are word-counted and stay linear at
        # these sizes (one word per row), matching the linear counters.
        probes = exps["work"]["merge_probes"]["exponent"]
        visits = exps["work"]["blocks_visited"]["exponent"]
        env = chain_profile_doc["environment"]
        if env["planner_backend"] == "fast":
            assert probes == pytest.approx(visits)
        else:
            assert probes > visits

    def test_sweep_work_is_pinned(self, chain_profile_doc):
        """Every point's work block and every work fit, verbatim."""
        sweep = chain_profile_doc["sweep"]
        backend = chain_profile_doc["environment"]["planner_backend"]
        work = SWEEP_WORK[backend]
        assert [p["work"] for p in sweep["points"]] == [
            {name: series[i] for name, series in work.items()}
            for i in range(len(sweep["sizes"]))
        ]
        assert sweep["exponents"]["work"] == {
            name: {
                "exponent": exponent,
                "ci95": [exponent, exponent],
                "r2": r2,
                "medians": [float(v) for v in work[name]],
            }
            for name, (exponent, r2) in SWEEP_FITS[backend].items()
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("app"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(kind="bench-run"),
            lambda d: d["work"].update(from_the_future=1),
            lambda d: d["work"].update(merge_probes=-1),
            lambda d: d["profile"].update(engine="perf"),
            lambda d: d["profile"]["frames"].append({"stack": []}),
            lambda d: d["sweep"].update(shape="torus"),
            lambda d: d["sweep"]["sizes"].append(14),
            lambda d: d["sweep"]["points"].pop(),
            lambda d: d["sweep"]["exponents"].pop("wall_s"),
            lambda d: d["sweep"]["exponents"]["wall_s"].update(ci95=[2, 1]),
        ],
        ids=[
            "no-app", "bad-version", "bad-kind", "unknown-counter",
            "negative-counter", "bad-engine",
            "empty-frame-stack", "bad-shape", "duplicate-size",
            "points-mismatch", "no-wall-fit", "unordered-ci",
        ],
    )
    def test_validation_rejects_mutations(self, chain_profile_doc, mutate):
        doc = json.loads(json.dumps(chain_profile_doc))
        mutate(doc)
        with pytest.raises(ValueError):
            validate_profile(doc)

    def test_capture_only_and_sweep_only_docs_validate(self, chain_profile_doc):
        doc = json.loads(json.dumps(chain_profile_doc))
        sweep = doc.pop("sweep")
        validate_profile(doc)
        sweep_only = {
            k: doc[k]
            for k in ("schema_version", "kind", "created_unix",
                      "environment", "app")
        }
        sweep_only["sweep"] = sweep
        validate_profile(sweep_only)

    def test_cprofile_engine_produces_flat_frames(self):
        app = build_probe_graph("chain", kernels=6)
        capture = profile_planner(app, spec=SMALL_SPEC, engine="cprofile")
        assert capture["frames"]
        assert all(len(f["stack"]) == 1 for f in capture["frames"])
        doc = build_profile_doc("probe-chain6", capture=capture)
        assert doc["profile"]["engine"] == "cprofile"

    def test_html_renders_every_section(self, chain_profile_doc):
        page = render_profile_html(chain_profile_doc)
        for needle in ("Planner work", "Hottest stacks", "Scalability sweep",
                       "Fitted exponents", "Ladder points", "<svg"):
            assert needle in page, needle

    def test_sweep_rejects_short_ladders(self):
        with pytest.raises(ValueError):
            run_sweep("chain", sizes=(8,), repeats=1)
        with pytest.raises(ValueError):
            run_sweep("torus", sizes=DEFAULT_SWEEP_SIZES)


class TestExponentDrift:
    def test_identical_docs_do_not_drift(self, chain_profile_doc):
        assert compare_exponents(chain_profile_doc, chain_profile_doc) == []

    def test_injected_drift_is_reported(self, chain_profile_doc):
        current = json.loads(json.dumps(chain_profile_doc))
        fit = current["sweep"]["exponents"]["work"]["merge_probes"]
        fit["exponent"] = round(fit["exponent"] + 1.0, 4)
        drifts = compare_exponents(chain_profile_doc, current)
        assert len(drifts) == 1 and "work.merge_probes" in drifts[0]

    def test_small_wobble_is_absorbed_by_tolerance(self, chain_profile_doc):
        current = json.loads(json.dumps(chain_profile_doc))
        fit = current["sweep"]["exponents"]["wall_s"]
        fit["exponent"] = round(fit["exponent"] + 0.1, 4)
        assert compare_exponents(chain_profile_doc, current) == []

    def test_shape_mismatch_short_circuits(self, chain_profile_doc):
        app = build_probe_graph("fan", kernels=6)
        fan_doc = build_profile_doc(
            "probe-fan6",
            sweep=run_sweep(
                "fan", sizes=(4, 6, 8), repeats=1, warmup=0, spec=SMALL_SPEC
            ),
        )
        drifts = compare_exponents(chain_profile_doc, fan_doc)
        assert len(drifts) == 1 and "shapes differ" in drifts[0]

    def test_disappeared_exponent_is_flagged(self, chain_profile_doc):
        current = json.loads(json.dumps(chain_profile_doc))
        del current["sweep"]["exponents"]["work"]["merge_probes"]
        drifts = compare_exponents(chain_profile_doc, current)
        assert any("disappeared" in d for d in drifts)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestProfileCLI:
    ARGS = ["profile", "--preset", "chain", "--kernels", "8"]

    def test_parser_registers_profile(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["profile", "--sweep"])
        assert args.command == "profile" and args.sweep
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--preset", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--engine", "perf"])

    def test_writes_validated_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(self.ARGS + [
            "-o", "prof.json", "--collapsed", "prof.folded",
            "--html", "prof.html",
        ])
        assert code == 0
        doc = load_profile("prof.json")
        assert doc["work"]["merge_probes"] > 0
        folded = (tmp_path / "prof.folded").read_text()
        assert folded and all(
            line.rsplit(" ", 1)[1].isdigit()
            for line in folded.strip().splitlines()
        )
        assert "Scalability" not in (tmp_path / "prof.html").read_text()
        assert "planner work:" in capsys.readouterr().out

    def test_sweep_emits_exponents(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(self.ARGS + [
            "--sweep", "--sweep-sizes", "5,8,11", "--repeats", "1",
            "--warmup", "0", "--engine", "none", "-o", "prof.json",
        ])
        assert code == 0
        doc = load_profile("prof.json")
        assert "profile" not in doc
        assert doc["sweep"]["exponents"]["work"]["merge_probes"]["exponent"] > 1.0
        assert "wall ~ n^" in capsys.readouterr().out

    def test_collapsed_without_engine_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(self.ARGS + [
            "--engine", "none", "--collapsed", "prof.folded",
        ])
        assert code == 2

    def test_baseline_drift_is_advisory_unless_strict(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        sweep_args = self.ARGS + [
            "--sweep", "--sweep-sizes", "5,8,11", "--repeats", "1",
            "--warmup", "0", "--engine", "none",
        ]
        assert main(sweep_args + ["-o", "base.json"]) == 0
        # Timed exponents may wobble between runs (that is why drift is
        # advisory), so the guaranteed cases use a doctored baseline:
        # +1.0 on a deterministic work exponent is always past tol.
        base = json.load(open("base.json"))
        fit = base["sweep"]["exponents"]["work"]["merge_probes"]
        fit["exponent"] = round(fit["exponent"] + 1.0, 4)
        json.dump(base, open("doctored.json", "w"))
        assert main(sweep_args + ["-o", "cur.json",
                                  "--baseline", "doctored.json"]) == 0
        assert "EXPONENT DRIFT" in capsys.readouterr().err
        assert main(sweep_args + ["-o", "cur.json", "--strict",
                                  "--baseline", "doctored.json"]) == 2

    def test_run_summary_carries_planner_digest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--engine", "none"]) == 0
        err = capsys.readouterr().err
        assert "planner unions=" in err and "weight evals=" in err
