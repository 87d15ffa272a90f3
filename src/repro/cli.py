"""Command-line interface: ``ktiler <experiment> [options]``.

Regenerates every evaluation artifact of the paper from the terminal:

.. code-block:: console

    $ ktiler fig2                 # profiler metrics, default vs tiled
    $ ktiler fig3                 # Jacobi throughput vs grid size
    $ ktiler fig4                 # HSOpticalFlow graph census
    $ ktiler fig5                 # end-to-end default vs KTILER
    $ ktiler suitability          # section II kernel study
    $ ktiler ablation threshold   # design-knob sweeps
    $ ktiler demo                 # two-kernel quickstart
    $ ktiler trace                # full observability run (trace + metrics)
    $ ktiler explain              # audit a tiled schedule (JSON + HTML)
    $ ktiler diff                 # attribute plan divergence to a decision
    $ ktiler profile              # profile the planner (counters + stacks)
    $ ktiler profile --sweep      # fit planner complexity exponents

Every experiment prints the same rows/series the paper reports; see
EXPERIMENTS.md for paper-vs-measured values.

The parser is a table of subcommands (:data:`SUBCOMMANDS`) over four
shared option groups: ``--l2-kb`` (:data:`L2_OPTIONS`),
``--planner-backend`` (:data:`PLANNER_OPTIONS`), ``--cache-dir`` /
``--no-cache`` (:data:`CACHE_OPTIONS`) and ``--trace`` / ``--metrics``
(:data:`OBS_OPTIONS`).  A subcommand takes only the groups its handler
reads, so a flag it would ignore is a usage error.  ``--trace
out.json`` writes Chrome trace-event JSON (Perfetto /
chrome://tracing) and ``--metrics out.prom`` Prometheus text (use a
``.json`` suffix for the JSON dump); ``ktiler trace`` runs a preset
application with tracing forced on and emits both artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.apps.synthetic import MAX_PROBE_KERNELS
from repro.core.fast_cluster import PLANNER_BACKEND_ENV_VAR, PLANNER_BACKENDS
from repro.errors import ConfigurationError
from repro.experiments import (
    cache_sweep,
    gap_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_suitability,
    threshold_sweep,
)
from repro.experiments.presets import PAPER_SPEC, SCALED_SPEC
from repro.gpusim.arch import GpuSpec, spec_with_l2
from repro.obs import (
    NULL_TRACER,
    PROFILE_SCHEMA_VERSION,
    Tracer,
    write_chrome_trace,
    write_metrics,
)
from repro.store import STORE_ENV_VAR, resolve_store


def _int_value(text: str) -> int:
    """``int(text)``, or an argparse error naming the bad value."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """argparse type of the count and size flags: an integer >= 1."""
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of ``--warmup``: an integer >= 0."""
    value = _int_value(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type of ``--drift-tol``: a float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _probe_kernels(text: str) -> int:
    """argparse type of a probe-graph size: an integer in
    [1, MAX_PROBE_KERNELS]."""
    value = _positive_int(text)
    if value > MAX_PROBE_KERNELS:
        raise argparse.ArgumentTypeError(
            f"must be <= {MAX_PROBE_KERNELS}, got {value}"
        )
    return value


def _sweep_sizes(text: str) -> List[int]:
    """argparse type of ``--sweep-sizes``: a comma list of at least two
    distinct probe-graph sizes."""
    sizes = [_probe_kernels(item) for item in text.split(",")]
    if len(set(sizes)) < 2:
        raise argparse.ArgumentTypeError(
            f"want at least two distinct sizes, got {text!r}"
        )
    return sizes


#: One ``add_argument`` call: the flags and their keyword arguments.
Option = Tuple[Tuple[str, ...], dict]


def _opt(*flags: str, **kwargs) -> Option:
    return flags, kwargs


# ----------------------------------------------------------------------
# Shared option groups
# ----------------------------------------------------------------------
L2_OPTIONS = (
    _opt("--l2-kb", type=_positive_int, default=None,
         help="override the simulated L2 size in KiB"),
)
PLANNER_OPTIONS = (
    _opt("--planner-backend", choices=PLANNER_BACKENDS, default=None,
         help=(
             "merge planner: 'reference' (per-candidate BFS) or 'fast' "
             "(incremental bitset reachability, bit-identical schedules); "
             f"default from ${PLANNER_BACKEND_ENV_VAR} or the "
             "experiment's own default"
         )),
)
CACHE_OPTIONS = (
    _opt("--cache-dir", metavar="DIR", default=None,
         help=(
             "content-addressed artifact cache for traces, perf tables and "
             f"schedules (default ${STORE_ENV_VAR} or off)"
         )),
    _opt("--no-cache", action="store_true",
         help="disable the artifact cache even when the environment sets one"),
)
OBS_OPTIONS = (
    _opt("--trace", metavar="PATH", default=None,
         help="write a Chrome trace-event JSON (load in ui.perfetto.dev)"),
    _opt("--metrics", metavar="PATH", default=None,
         help="write collected metrics (Prometheus text; .json for JSON)"),
)


def _make_tracer(args: argparse.Namespace):
    """An enabled Tracer when an observability flag asks for one."""
    if args.trace or args.metrics:
        return Tracer()
    return NULL_TRACER


def _finish_obs(args: argparse.Namespace, tracer) -> None:
    """Write the requested observability artifacts, if tracing ran."""
    if not tracer.enabled:
        return
    # End-of-run summary of artifact-store traffic (collected
    # throughout the run).
    m = tracer.metrics
    # Planner work digest: only present when a traced run planned
    # something (the planner.* families exist only then).
    planner = ""
    if "planner.footprint_unions" in m:
        planner = (
            " | planner unions={} frontier={} weight evals={}".format(
                int(m.total("planner.footprint_unions")),
                int(m.total("planner.frontier_updates")),
                int(m.total("planner.weight_evals")),
            )
        )
    print(
        "run summary: store hits={} misses={} writes={} corrupt={}{}".format(
            int(m.total("store.hits")),
            int(m.total("store.misses")),
            int(m.total("store.writes")),
            int(m.total("store.corrupt")),
            planner,
        ),
        file=sys.stderr,
    )
    if args.trace:
        trace = write_chrome_trace(args.trace, tracer)
        print(
            f"wrote {len(trace['traceEvents'])} trace events to {args.trace}",
            file=sys.stderr,
        )
    if args.metrics:
        if args.metrics.endswith(".json"):
            write_metrics(tracer.metrics, json_path=args.metrics)
        else:
            write_metrics(tracer.metrics, prom_path=args.metrics)
        print(
            f"wrote {len(tracer.metrics)} metric families to {args.metrics}",
            file=sys.stderr,
        )


def _store(args: argparse.Namespace, tracer=NULL_TRACER):
    """The artifact store the flags (or environment) ask for."""
    return resolve_store(
        cache_dir=args.cache_dir, no_cache=args.no_cache, tracer=tracer
    )


def _ktiler(app, args: argparse.Namespace, tracer):
    """The KTiler of ``trace``, ``explain`` and ``diff``: the resolved
    spec, its launch gap as the per-launch overhead, and the store and
    planner the flags ask for."""
    from repro.core import KTiler, KTilerConfig

    spec = args.spec
    return KTiler(
        app.graph,
        spec=spec,
        config=KTilerConfig(launch_overhead_us=spec.launch_gap_us),
        tracer=tracer,
        store=_store(args, tracer),
        planner_backend=args.planner_backend,
    )


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def _experiment(run: Callable) -> Callable[[argparse.Namespace], int]:
    """The handler of an experiment subcommand: ``run(args, tracer)``
    returns the result whose table is printed, then the ``--trace`` /
    ``--metrics`` artifacts are written."""

    def handler(args: argparse.Namespace) -> int:
        tracer = _make_tracer(args)
        print(run(args, tracer).format_table())
        _finish_obs(args, tracer)
        return 0

    return handler


_cmd_fig2 = _experiment(lambda args, tracer: run_fig2(
    image_size=args.size, spec=args.spec, tracer=tracer,
    store=_store(args, tracer),
))
_cmd_fig3 = _experiment(lambda args, tracer: run_fig3(
    image_size=args.size, spec=args.spec,
    with_split_comparison=not args.no_split, tracer=tracer,
))
_cmd_fig5 = _experiment(lambda args, tracer: run_fig5(
    frame_size=args.frame_size, levels=args.levels, jacobi_iters=args.iters,
    spec=args.spec, check_functional=args.check_functional, tracer=tracer,
    store=_store(args, tracer), planner_backend=args.planner_backend,
))
_cmd_suitability = _experiment(
    lambda args, tracer: run_suitability(spec=args.spec, tracer=tracer)
)


def _cmd_fig4(args: argparse.Namespace) -> int:
    result = run_fig4(
        frame_size=args.frame_size, levels=args.levels, jacobi_iters=args.iters
    )
    print(result.format_table())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    sweeps = {
        "threshold": threshold_sweep,
        "cache": cache_sweep,
        "gap": gap_sweep,
    }
    result = sweeps[args.knob](
        store=_store(args), planner_backend=args.planner_backend
    )
    print(result.format_table())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.apps import build_pipeline
    from repro.core import KTiler, KTilerConfig
    from repro.gpusim import NOMINAL
    from repro.runtime import compare_default_vs_ktiler, schedules_equivalent

    app = build_pipeline(size=args.size)
    print(app.graph.summary())
    ktiler = KTiler(
        app.graph,
        config=KTilerConfig(launch_overhead_us=2.0),
        planner_backend=args.planner_backend,
    )
    plan = ktiler.plan(NOMINAL)
    print(plan.schedule.summary())
    report = compare_default_vs_ktiler(ktiler, [NOMINAL], launch_gap_us=2.0)
    print(report.format_table())
    ok, mismatched = schedules_equivalent(
        app.graph, plan.schedule, app.host_inputs()
    )
    print(f"functionally equivalent: {ok}{mismatched or ''}")
    return 0 if ok else 1


#: Preset applications runnable under ``ktiler trace --app <name>``.
TRACE_APPS = ("hsopticalflow", "pipeline", "jacobi", "diamond", "stencil")


def _build_trace_app(args: argparse.Namespace):
    from repro.apps import build_hsopticalflow, build_pipeline
    from repro.apps.synthetic import (
        build_diamond,
        build_jacobi_pingpong,
        build_stencil_chain,
    )

    if args.app == "hsopticalflow":
        return build_hsopticalflow(
            frame_size=args.size or 128,
            levels=args.levels,
            jacobi_iters=args.iters,
        )
    if args.app == "pipeline":
        return build_pipeline(size=args.size or 256)
    if args.app == "jacobi":
        return build_jacobi_pingpong(iters=args.iters, size=args.size or 256)
    if args.app == "diamond":
        return build_diamond(size=args.size or 128)
    return build_stencil_chain(size=args.size or 128)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.gpusim import NOMINAL
    from repro.runtime import compare_default_vs_ktiler

    # The whole point of this subcommand is the artifacts, so tracing
    # is always on and both paths have defaults.
    args.trace = args.trace or "trace.json"
    args.metrics = args.metrics or "metrics.prom"
    tracer = Tracer()
    app = _build_trace_app(args)
    print(app.graph.summary())
    ktiler = _ktiler(app, args, tracer)
    report = compare_default_vs_ktiler(ktiler, [NOMINAL])
    print(report.format_table())
    stats = ktiler.plan(NOMINAL).stats
    print(
        f"scheduler: {stats.adopted_merges} merges adopted, "
        f"{stats.rejected_merges} rejected, "
        f"{stats.invalid_partitions} invalid partitions"
    )
    _finish_obs(args, tracer)
    return 0


#: Preset applications runnable under ``ktiler explain --preset <name>``.
EXPLAIN_PRESETS = ("demo", "fig5", "pipeline", "jacobi", "diamond", "stencil")


def _preset_app(args: argparse.Namespace):
    """The ``--preset`` application, built from the daemon's preset
    registry; the probe presets (``ktiler profile`` only) honour
    ``--kernels``, ``--size`` and ``--seed``."""
    from repro.apps.synthetic import PROBE_SHAPES
    from repro.serve.wire import build_preset_app

    if args.preset not in PROBE_SHAPES:
        return build_preset_app(args.preset)
    params = {"kernels": args.kernels, "seed": args.seed}
    if args.size:
        params["size"] = args.size
    return build_preset_app(args.preset, **params)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.gpusim import NOMINAL
    from repro.obs.audit import audit_schedule, write_audit

    tracer = _make_tracer(args)
    app = _preset_app(args)
    print(app.graph.summary())
    ktiler = _ktiler(app, args, tracer)
    audit = audit_schedule(ktiler, freq=NOMINAL, tracer=tracer)
    print(audit.format_table())
    write_audit(
        audit, json_path=args.json, html_path=args.html, preset=args.preset
    )
    print(
        f"wrote audit JSON to {args.json}, HTML report to {args.html}",
        file=sys.stderr,
    )
    _finish_obs(args, tracer)
    return 0


def _diff_freq(gpu_mhz, mem_mhz):
    from repro.gpusim.freq import NOMINAL, FrequencyConfig

    return FrequencyConfig(
        gpu_mhz=NOMINAL.gpu_mhz if gpu_mhz is None else gpu_mhz,
        mem_mhz=NOMINAL.mem_mhz if mem_mhz is None else mem_mhz,
    )


def _freq_label(freq) -> str:
    return f"gpu={freq.gpu_mhz:g}MHz mem={freq.mem_mhz:g}MHz"


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.gpusim.freq import NOMINAL
    from repro.obs.diff import diff_plans, format_divergence, write_diff

    tracer = _make_tracer(args)
    app = _preset_app(args)
    freq_a = _diff_freq(args.gpu_mhz_a, args.mem_mhz_a)
    gpu_b, mem_b = args.gpu_mhz_b, args.mem_mhz_b
    if gpu_b is None and mem_b is None:
        # Default comparison: the same app planned at half memory
        # frequency — the classic case where the weight model (and
        # therefore the merge decisions) shift with the DVFS point.
        mem_b = NOMINAL.mem_mhz / 2.0
    freq_b = _diff_freq(gpu_b, mem_b)
    print(app.graph.summary())
    # One KTiler plans both sides, so graph, spec and config are
    # identical by construction and the diff isolates the frequency.
    ktiler = _ktiler(app, args, tracer)
    plan_a = ktiler.plan(freq_a)
    plan_b = ktiler.plan(freq_b)
    payload = diff_plans(
        app.graph,
        plan_a,
        plan_b,
        label_a=_freq_label(freq_a),
        label_b=_freq_label(freq_b),
    )
    print(format_divergence(payload))
    summary = payload["summary"]
    print(
        f"clusters {summary['clusters_a']} vs {summary['clusters_b']}, "
        f"{summary['moved_kernels']} kernels reassigned, "
        f"{summary['tiling_changes']} tiling changes, "
        f"{summary['edge_weight_changes']} edge-weight changes"
    )
    write_diff(payload, json_path=args.json, html_path=args.html)
    print(
        f"wrote diff JSON to {args.json}, HTML report to {args.html}",
        file=sys.stderr,
    )
    _finish_obs(args, tracer)
    if args.strict and not payload["identical"]:
        return 2
    return 0


#: Preset applications runnable under ``ktiler profile --preset <name>``:
#: the ``ktiler explain`` presets plus the three scalability-probe
#: topologies (which honour ``--kernels`` and ``--seed``).
PROFILE_PRESETS = EXPLAIN_PRESETS + ("chain", "fan", "grid")


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.apps.synthetic import PROBE_SHAPES
    from repro.obs.pages import write_profile_html
    from repro.obs.profile import (
        build_profile_doc,
        compare_exponents,
        load_profile,
        profile_planner,
        run_sweep,
        write_collapsed,
        write_profile,
    )

    # Planning must actually run for a profile to mean anything, so the
    # artifact cache is never consulted here (no cache options).
    tracer = Tracer()
    spec = args.spec
    engine = None if args.engine == "none" else args.engine
    app = _preset_app(args)
    print(app.graph.summary())
    capture = profile_planner(
        app,
        spec=spec,
        engine=engine,
        tracer=tracer,
        planner_backend=args.planner_backend,
    )
    work = capture["work"]
    print(
        "planner work: "
        + " ".join(f"{k}={v}" for k, v in sorted(work.items()) if v)
    )
    if capture["frames"]:
        top = capture["frames"][0]
        print(
            f"hottest frame: {top['stack'][-1]} "
            f"({top['self_us'] / 1e3:.2f} ms self, {top['calls']} calls)"
        )
    sweep = None
    if args.sweep:
        shape = args.preset if args.preset in PROBE_SHAPES else "chain"
        sweep = run_sweep(
            shape=shape,
            sizes=args.sweep_sizes,
            repeats=args.repeats,
            warmup=args.warmup,
            spec=spec,
            seed=args.seed,
            image_size=args.size or 32,
            log=lambda line: print(line, file=sys.stderr),
            planner_backend=args.planner_backend,
        )
        wall_fit = sweep["exponents"]["wall_s"]
        print(
            f"sweep({shape}): wall ~ n^{wall_fit['exponent']:.2f} "
            f"(CI95 [{wall_fit['ci95'][0]:.2f}, {wall_fit['ci95'][1]:.2f}], "
            f"r2 {wall_fit['r2']:.3f})"
        )
        for name, fit in sorted(sweep["exponents"]["work"].items()):
            print(f"  planner.{name} ~ n^{fit['exponent']:.2f}")
    doc = build_profile_doc(
        app.graph.name if hasattr(app.graph, "name") else args.preset,
        capture=capture,
        sweep=sweep,
        planner_backend=args.planner_backend,
    )
    written = []
    if args.json:
        write_profile(args.json, doc)
        written.append(args.json)
    if args.collapsed:
        if not capture["frames"]:
            print(
                "--collapsed needs a profiling engine (got --engine none)",
                file=sys.stderr,
            )
            return 2
        write_collapsed(args.collapsed, capture["frames"])
        written.append(args.collapsed)
    if args.html:
        write_profile_html(doc, args.html)
        written.append(args.html)
    if written:
        print(f"wrote {', '.join(written)}", file=sys.stderr)
    code = 0
    if args.baseline:
        drifts = compare_exponents(
            load_profile(args.baseline), doc, tol=args.drift_tol
        )
        if drifts:
            for drift in drifts:
                print(f"EXPONENT DRIFT: {drift}", file=sys.stderr)
            if args.strict:
                code = 2
            else:
                print(
                    "exponent drift is advisory (use --strict to enforce)",
                    file=sys.stderr,
                )
        else:
            print("no exponent drift vs baseline", file=sys.stderr)
    _finish_obs(args, tracer)
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.slog import open_slog
    from repro.serve.server import run_forever
    from repro.serve.service import PlanService

    # /metrics always exports; tracing costs little here.  The event
    # ring is bounded so a long-lived daemon cannot grow without limit.
    tracer = Tracer(max_events=8192)
    slog = None if args.no_request_log else open_slog(args.request_log)
    service = PlanService(
        tracer=tracer,
        store=_store(args, tracer),
        planner_backend=args.planner_backend,
        timeout_s=args.timeout_s,
        max_body_bytes=args.max_body_kb * 1024,
        planner_threads=args.planner_threads,
        slog=slog,
        tracez_capacity=args.tracez_capacity,
        slow_ms=args.slow_ms,
    )
    return run_forever(
        service, host=args.host, port=args.port, verbose=args.verbose
    )


def _client_request_body(args: argparse.Namespace) -> dict:
    """Assemble the /v1/plan body the flags describe (sparse: defaults
    stay server-side so the fingerprint matches other clients')."""
    app: dict = {"preset": args.preset}
    for key in ("size", "levels", "iters", "kernels", "seed"):
        value = getattr(args, key)
        if value is not None:
            app[key] = value
    body: dict = {"app": app}
    gpu: dict = {}
    if args.gpu_base is not None:
        gpu["base"] = args.gpu_base
    if args.l2_kb is not None:
        gpu["l2_kb"] = args.l2_kb
    if gpu:
        body["gpu"] = gpu
    if args.gpu_mhz is not None or args.mem_mhz is not None:
        freq = {}
        if args.gpu_mhz is not None:
            freq["gpu_mhz"] = args.gpu_mhz
        if args.mem_mhz is not None:
            freq["mem_mhz"] = args.mem_mhz
        body["freq"] = freq
    if args.planner_backend is not None:
        body["planner_backend"] = args.planner_backend
    if args.measure:
        body["measure"] = True
    if args.timeout_s is not None:
        body["timeout_s"] = args.timeout_s
    return body


def _client_diff(client, args: argparse.Namespace):
    """``ktiler client diff``: two ledger-bearing plans, one attribution.

    Side A is the request the ordinary flags describe; side B is the
    same request with the ``--gpu-mhz-b``/``--mem-mhz-b`` overrides
    (default: side A at half memory frequency).  The daemon returns the
    decision ledgers, so the diff runs entirely client-side.
    """
    from repro.gpusim.freq import NOMINAL
    from repro.obs.diff import diff_ledgers, format_divergence

    body_a = _client_request_body(args)
    body_a["ledger"] = True
    body_b = json.loads(json.dumps(body_a))
    freq_b = dict(body_b.get("freq", {}))
    if args.gpu_mhz_b is None and args.mem_mhz_b is None:
        freq_b["mem_mhz"] = freq_b.get("mem_mhz", NOMINAL.mem_mhz) / 2.0
    else:
        if args.gpu_mhz_b is not None:
            freq_b["gpu_mhz"] = args.gpu_mhz_b
        if args.mem_mhz_b is not None:
            freq_b["mem_mhz"] = args.mem_mhz_b
    body_b["freq"] = freq_b

    def label(body):
        freq = body.get("freq", {})
        gpu = freq.get("gpu_mhz", NOMINAL.gpu_mhz)
        mem = freq.get("mem_mhz", NOMINAL.mem_mhz)
        return f"gpu={gpu:g}MHz mem={mem:g}MHz"

    resp_a = client.plan(body_a)
    resp_b = client.plan(body_b)
    payload = diff_ledgers(
        resp_a["ledger"],
        resp_b["ledger"],
        label_a=label(body_a),
        label_b=label(body_b),
    )
    print(format_divergence(payload))
    print(
        f"ledger entries {payload['ledger']['entries_a']} vs "
        f"{payload['ledger']['entries_b']}, "
        f"{len(payload['edge_weight_changes'])} edge-weight changes"
    )
    print(f"plan_digest_a {resp_a['plan_digest']}")
    print(f"plan_digest_b {resp_b['plan_digest']}")
    return payload


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    client = ServeClient(args.url, request_id=args.request_id)
    code = 0
    try:
        if args.action in ("metrics", "statusz"):
            print(getattr(client, args.action)(), end="")
            result = None
        elif args.action in ("health", "vars", "tracez"):
            result = {
                "health": client.health,
                "vars": client.debug_vars,
                "tracez": client.debug_tracez,
            }[args.action]()
            print(json.dumps(result, indent=1, sort_keys=True))
        elif args.action == "diff":
            result = _client_diff(client, args)
            if args.strict and not result["identical"]:
                code = 2
        else:
            body = _client_request_body(args)
            if args.action == "plan":
                result = client.plan(body)
                schedule = result["schedule"]
                print(
                    f"plan {result['request']['app']['preset']}: "
                    f"{len(schedule['subkernels'])} launches, "
                    f"estimated {result['estimated_cost_us']:.1f}us, "
                    f"served={result['served']} "
                    f"in {result['elapsed_ms']:.1f}ms"
                )
                print(f"fingerprint {result['fingerprint']}")
                print(f"plan_digest {result['plan_digest']}")
            else:
                result = client.explain(body)
                audit = result["audit"]
                print(
                    f"explain {result['request']['app']['preset']}: "
                    f"{len(audit.get('edges', []))} audited edges, "
                    f"served={result['served']} "
                    f"in {result['elapsed_ms']:.1f}ms"
                )
                print(f"fingerprint {result['fingerprint']}")
            if result.get("request_id"):
                print(f"request_id {result['request_id']}")
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if result is not None and args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return code


SERVE_CLIENT_ACTIONS = (
    "plan", "explain", "diff", "health", "metrics", "statusz", "vars",
    "tracez",
)


# ----------------------------------------------------------------------
# The subcommand table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Subcommand:
    """One ``ktiler`` subcommand.

    ``options`` are its own flags; ``groups`` the shared option groups
    its handler reads.  A subcommand that simulates a device names the
    ``spec_base`` that ``--l2-kb`` resizes; ``main`` resolves it into
    ``args.spec`` before the handler runs.
    """

    name: str
    run: Callable[[argparse.Namespace], int]
    help: str
    options: Tuple[Option, ...] = ()
    groups: Tuple[Tuple[Option, ...], ...] = ()
    spec_base: Optional[GpuSpec] = None
    description: Optional[str] = None


_JACOBI_SIZE = _opt("--size", type=int, default=512, help="Jacobi image side")
_HSOF_OPTIONS = (
    _opt("--frame-size", type=int, default=256),
    _opt("--levels", type=int, default=3),
    _opt("--iters", type=int, default=20, help="JI nodes per step"),
)

SUBCOMMANDS = (
    Subcommand(
        "fig2", _cmd_fig2, "profiler metrics, default vs 1/32 tiled",
        options=(_JACOBI_SIZE,),
        groups=(L2_OPTIONS, CACHE_OPTIONS, OBS_OPTIONS),
        spec_base=PAPER_SPEC,
    ),
    Subcommand(
        "fig3", _cmd_fig3, "Jacobi throughput vs grid size",
        options=(
            _JACOBI_SIZE,
            _opt("--no-split", action="store_true",
                 help="skip the 4x250-block split comparison"),
        ),
        groups=(L2_OPTIONS, OBS_OPTIONS),
        spec_base=PAPER_SPEC,
    ),
    Subcommand(
        "fig4", _cmd_fig4, "HSOpticalFlow graph census",
        options=_HSOF_OPTIONS,
    ),
    Subcommand(
        "fig5", _cmd_fig5, "end-to-end default vs KTILER",
        options=_HSOF_OPTIONS + (
            _opt("--check-functional", action="store_true",
                 help="also verify tiled output == default output"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS, CACHE_OPTIONS, OBS_OPTIONS),
        spec_base=SCALED_SPEC,
    ),
    Subcommand(
        "suitability", _cmd_suitability, "section II kernel study",
        groups=(L2_OPTIONS, OBS_OPTIONS),
        spec_base=PAPER_SPEC,
    ),
    Subcommand(
        "ablation", _cmd_ablation, "design-knob sweeps",
        options=(_opt("knob", choices=("threshold", "cache", "gap")),),
        groups=(PLANNER_OPTIONS, CACHE_OPTIONS),
    ),
    Subcommand(
        "demo", _cmd_demo, "two-kernel quickstart (Figure 1)",
        options=(_opt("--size", type=int, default=1024, help="image side"),),
        groups=(PLANNER_OPTIONS,),
    ),
    Subcommand(
        "trace", _cmd_trace,
        "run a preset app fully traced; emit Chrome trace + metrics",
        options=(
            _opt("--app", choices=TRACE_APPS, default="hsopticalflow"),
            _opt("--size", type=int, default=None,
                 help="image/frame side (preset-specific default)"),
            _opt("--levels", type=int, default=2,
                 help="pyramid levels (hsopticalflow)"),
            _opt("--iters", type=int, default=5,
                 help="Jacobi iterations (hsopticalflow, jacobi)"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS, CACHE_OPTIONS, OBS_OPTIONS),
        spec_base=SCALED_SPEC,
    ),
    Subcommand(
        "explain", _cmd_explain,
        "audit a tiled schedule: replay default vs tiled with miss "
        "attribution; write a JSON audit + HTML report",
        options=(
            _opt("--preset", choices=EXPLAIN_PRESETS, default="demo"),
            _opt("--json", metavar="PATH", default="audit.json",
                 help="audit JSON output path (schema_version 1)"),
            _opt("--html", metavar="PATH", default="audit.html",
                 help="self-contained HTML report output path"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS, CACHE_OPTIONS, OBS_OPTIONS),
        spec_base=SCALED_SPEC,
    ),
    Subcommand(
        "diff", _cmd_diff,
        "plan one application at two DVFS points and attribute the "
        "divergence to the first disagreeing planner decision",
        description=(
            "Plans the chosen preset twice — side A at the "
            "--gpu-mhz-a/--mem-mhz-a frequencies, side B at the "
            "--gpu-mhz-b/--mem-mhz-b frequencies (default: side A at "
            "half memory frequency) — and joins the two decision "
            "ledgers: the report names the first merge decision where "
            "the planners disagreed, every reassigned kernel, every "
            "tile-factor change, and every edge-weight delta."
        ),
        options=(
            _opt("--preset", choices=EXPLAIN_PRESETS, default="demo"),
            _opt("--gpu-mhz-a", type=float, default=None, metavar="MHZ",
                 help="side-A core frequency (default: nominal)"),
            _opt("--mem-mhz-a", type=float, default=None, metavar="MHZ",
                 help="side-A memory frequency (default: nominal)"),
            _opt("--gpu-mhz-b", type=float, default=None, metavar="MHZ",
                 help="side-B core frequency (default: side A's)"),
            _opt("--mem-mhz-b", type=float, default=None, metavar="MHZ",
                 help="side-B memory frequency (default: half of nominal "
                      "when no side-B flag is given)"),
            _opt("--json", metavar="PATH", default="diff.json",
                 help="diff JSON output path (schema_version 1)"),
            _opt("--html", metavar="PATH", default="diff.html",
                 help="self-contained HTML report output path"),
            _opt("--strict", action="store_true",
                 help="exit 2 when the plans diverge"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS, CACHE_OPTIONS, OBS_OPTIONS),
        spec_base=SCALED_SPEC,
    ),
    Subcommand(
        "profile", _cmd_profile,
        "planner observatory: deterministic work counters, "
        "flamegraph-ready stack capture, and scalability sweeps with "
        "fitted complexity exponents",
        description=(
            "Plans the chosen application once under a profiling engine "
            "and (optionally) sweeps a probe-graph size ladder to fit "
            "per-phase empirical complexity exponents.  Planning always "
            "runs fresh: the artifact cache is not consulted."
        ),
        options=(
            _opt("--preset", choices=PROFILE_PRESETS, default="demo",
                 help="application to profile (probe shapes honour "
                      "--kernels/--seed)"),
            _opt("--kernels", type=_probe_kernels, default=64, metavar="N",
                 help="probe-graph node count (probe presets only)"),
            _opt("--size", type=_positive_int, default=None,
                 help="image side for probe graphs (default 32)"),
            _opt("--seed", type=int, default=0,
                 help="probe-graph scale-factor jitter seed"),
            _opt("--engine", choices=("stack", "cprofile", "none"),
                 default="stack",
                 help="frame-capture engine ('none' = counters only)"),
            _opt("--sweep", action="store_true",
                 help="also sweep a probe-size ladder and fit exponents"),
            _opt("--sweep-sizes", type=_sweep_sizes, metavar="A,B,C",
                 default="8,16,32,64",
                 help="comma-separated kernel counts of the sweep ladder "
                      "(at least two distinct)"),
            _opt("--repeats", type=_positive_int, default=3, metavar="N",
                 help="timed repeats per ladder point"),
            _opt("--warmup", type=_non_negative_int, default=1, metavar="K",
                 help="untimed warmup runs per ladder point"),
            _opt("--json", "-o", metavar="PATH", default="profile.json",
                 help="planner-profile document output path "
                      f"(schema_version {PROFILE_SCHEMA_VERSION})"),
            _opt("--collapsed", metavar="PATH", default=None,
                 help="collapsed-stack output (flamegraph.pl/speedscope)"),
            _opt("--html", metavar="PATH", default=None,
                 help="self-contained profile dashboard output path"),
            _opt("--baseline", metavar="PATH", default=None,
                 help="baseline profile JSON for exponent-drift check"),
            _opt("--drift-tol", type=_non_negative_float, default=0.35,
                 metavar="TOL",
                 help="exponent drift tolerance vs the baseline"),
            _opt("--strict", action="store_true",
                 help="exit 2 on exponent drift (default: advisory)"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS, OBS_OPTIONS),
        spec_base=SCALED_SPEC,
    ),
    Subcommand(
        "serve", _cmd_serve,
        "tiling-as-a-service daemon: POST /v1/plan and /v1/explain with "
        "single-flight dedup over the artifact store",
        description=(
            "Long-running threaded HTTP/JSON daemon.  Identical requests "
            "are fingerprinted with the plan artifact-store key: "
            "concurrent duplicates coalesce onto one planning job, "
            "completed plans are memoized and (with --cache-dir) persist "
            "across restarts.  GET /healthz and /metrics for probes."
        ),
        options=(
            _opt("--host", default="127.0.0.1", help="bind address"),
            _opt("--port", type=int, default=8750,
                 help="bind port (0 = ephemeral; the bound port is printed "
                      "on stderr)"),
            _opt("--timeout-s", type=float, default=300.0, metavar="S",
                 help="per-request planning-wait ceiling (504 after; the "
                      "job continues and a retry is served warm)"),
            _opt("--max-body-kb", type=_positive_int, default=1024,
                 metavar="KB",
                 help="largest accepted request body (413 above)"),
            _opt("--planner-threads", type=_positive_int, default=4,
                 metavar="N",
                 help="concurrent planning jobs (distinct fingerprints)"),
            _opt("--verbose", action="store_true",
                 help="log every HTTP request to stderr"),
            _opt("--request-log", metavar="PATH", default="-",
                 help="structured JSON request log destination ('-' = "
                      "stderr; otherwise appended to PATH)"),
            _opt("--no-request-log", action="store_true",
                 help="disable the structured request log"),
            _opt("--slow-ms", type=float, default=250.0, metavar="MS",
                 help="requests at or above this latency land in the "
                      "/debug/tracez slow ring"),
            _opt("--tracez-capacity", type=_positive_int, default=64,
                 metavar="N",
                 help="exemplars kept per /debug/tracez ring "
                      "(recent/slow/errors)"),
        ),
        groups=(PLANNER_OPTIONS, CACHE_OPTIONS),
    ),
    Subcommand(
        "client", _cmd_client, "talk to a running `ktiler serve` daemon",
        options=(
            _opt("action", choices=SERVE_CLIENT_ACTIONS),
            _opt("--url", default="http://127.0.0.1:8750",
                 help="daemon base URL"),
            _opt("--preset", choices=PROFILE_PRESETS, default="demo",
                 help="application preset to plan/explain"),
            _opt("--size", type=int, default=None,
                 help="preset size parameter (server default if omitted)"),
            _opt("--levels", type=int, default=None,
                 help="pyramid levels (fig5)"),
            _opt("--iters", type=int, default=None,
                 help="Jacobi iterations (fig5, jacobi)"),
            _opt("--kernels", type=int, default=None,
                 help="probe-graph node count (chain/fan/grid)"),
            _opt("--seed", type=int, default=None,
                 help="probe-graph jitter seed (chain/fan/grid)"),
            _opt("--gpu-base",
                 choices=("scaled", "paper", "embedded", "desktop"),
                 default=None,
                 help="GpuSpec preset (server default: scaled)"),
            _opt("--gpu-mhz", type=float, default=None,
                 help="core frequency (default: nominal)"),
            _opt("--mem-mhz", type=float, default=None,
                 help="memory frequency (default: nominal)"),
            _opt("--measure", action="store_true",
                 help="also replay the plan and return wire timing "
                      "(blocking + streamed)"),
            _opt("--gpu-mhz-b", type=float, default=None, metavar="MHZ",
                 help="diff action: side-B core frequency"),
            _opt("--mem-mhz-b", type=float, default=None, metavar="MHZ",
                 help="diff action: side-B memory frequency (default: side "
                      "A at half memory frequency)"),
            _opt("--strict", action="store_true",
                 help="diff action: exit 2 when the ledgers diverge"),
            _opt("--timeout-s", type=float, default=None, metavar="S",
                 help="client-side request timeout forwarded to the "
                      "daemon"),
            _opt("--json", metavar="PATH", default=None,
                 help="also write the full response JSON"),
            _opt("--request-id", default=None, metavar="ID",
                 help="X-Request-Id to send (default: the daemon mints one "
                      "and echoes it back)"),
        ),
        groups=(L2_OPTIONS, PLANNER_OPTIONS),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktiler",
        description="KTILER (DATE 2019) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        # No prefix matching: a flag a subcommand does not take must
        # not pass as an abbreviation of one it does (``serve --trace``
        # for ``--tracez-capacity``).
        p = sub.add_parser(
            command.name,
            help=command.help,
            description=command.description,
            allow_abbrev=False,
        )
        for group in (command.options,) + command.groups:
            for flags, kwargs in group:
                p.add_argument(*flags, **kwargs)
        p.set_defaults(func=command.run, spec_base=command.spec_base)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Subcommands that simulate a device declare its base spec; resolve
    # it here, before any app is built, so a size the L2 geometry cannot
    # hold is a usage error rather than a traceback.
    if args.spec_base is not None:
        args.spec = args.spec_base
        if args.l2_kb is not None:
            try:
                args.spec = spec_with_l2(args.spec_base, args.l2_kb * 1024)
            except ConfigurationError as exc:
                parser.error(f"argument --l2-kb: {exc}")
    start = time.time()
    code = args.func(args)
    print(f"[{time.time() - start:.1f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
