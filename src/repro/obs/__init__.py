"""Observability: structured tracing, metrics, and Chrome-trace export.

The subsystem's pieces:

* :mod:`repro.obs.tracer` — span/event API; the zero-overhead
  :data:`NULL_TRACER` is the default everywhere, so instrumentation is
  always compiled in but free when disabled;
* :mod:`repro.obs.counters` — named counter/gauge registry with
  hierarchical labels (``cache.hits{kernel=jacobi}``);
* :mod:`repro.obs.chrome_trace` — export simulated timelines and
  scheduler decisions as Chrome trace-event JSON (Perfetto-loadable);
* :mod:`repro.obs.report` — JSON and Prometheus-text metric dumps;
* :mod:`repro.obs.audit` — opt-in L2 miss attribution (cold /
  capacity / conflict, per kernel and buffer) and the default-vs-tiled
  schedule auditor behind ``ktiler explain``;
* :mod:`repro.obs.bench` — median/MAD, span-to-phase attribution,
  environment fingerprints, and :func:`run_benchmark`, the one
  timed-repeat loop (warmup, then repeats under fresh tracers);
* :mod:`repro.obs.doccheck` — the checks all five document validators
  share (header, required keys, rows, counters, ``ci95``, JSON IO);
* :mod:`repro.obs.pages` — the shared HTML page shell and the
  ``ktiler profile`` dashboard;
* :mod:`repro.obs.histogram` / :mod:`repro.obs.ops` /
  :mod:`repro.obs.slog` — request-scoped serve telemetry: mergeable
  log-bucket latency histograms, contextvar request propagation with
  tracez exemplar rings and the ``/statusz`` renderer, and the
  schema-versioned structured request log;
* :mod:`repro.obs.profile` — the planner observatory behind
  ``ktiler profile``: span-scoped flamegraph capture
  (:class:`StackProfiler`), schema-versioned profile documents with
  deterministic work counters, and scalability sweeps that fit
  empirical complexity exponents over probe-graph size ladders;
* :mod:`repro.obs.decisions` / :mod:`repro.obs.diff` — the decision
  ledger (every Algorithm 1 merge candidate and Algorithm 2 tile
  round, bit-identical across planner backends, persisted with plan
  artifacts) and the ``ktiler diff`` engine that
  joins two ledgers to attribute plan divergence to the first
  disagreeing decision.

Quick start::

    from repro.obs import Tracer, write_chrome_trace, write_metrics

    tracer = Tracer()
    ktiler = KTiler(app.graph, tracer=tracer)
    report = compare_default_vs_ktiler(ktiler, [NOMINAL])
    write_chrome_trace("out.json", tracer)     # load in ui.perfetto.dev
    write_metrics(tracer.metrics, prom_path="out.prom")
"""

from repro.obs.chrome_trace import (
    build_chrome_trace,
    timeline_trace_events,
    write_chrome_trace,
)
from repro.obs.counters import NULL_REGISTRY, CounterRegistry, NullRegistry
from repro.obs.report import (
    metrics_to_json,
    metrics_to_prometheus,
    write_metrics,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.histogram import (
    DEFAULT_LATENCY_BOUNDS_S,
    LogHistogram,
    merge_histograms,
)
from repro.obs.ops import (
    RequestContext,
    TraceBuffer,
    build_span_tree,
    current_context,
    current_request_id,
    new_request_id,
    render_statusz,
    request_context,
    use_context,
)
from repro.obs.slog import (
    SLOG_KIND,
    SLOG_SCHEMA_VERSION,
    SlogWriter,
    make_record,
    open_slog,
    validate_slog,
)
from repro.obs.bench import (
    PHASES,
    Repeat,
    environment_fingerprint,
    mad,
    phase_breakdown,
    run_benchmark,
)
from repro.obs.pages import render_profile_html, write_profile_html
from repro.obs.profile import (
    DEFAULT_SWEEP_SIZES,
    PROFILE_ENGINES,
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
    write_collapsed,
    write_profile,
)
from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    MISS_CLASSES,
    EdgeAudit,
    MissAttributor,
    ReuseDistanceTracker,
    ScheduleAudit,
    audit_schedule,
    render_html,
    validate_audit,
    write_audit,
)
from repro.obs.decisions import (
    DECISION_COUNTER_FAMILIES,
    LEDGER_SCHEMA_VERSION,
    MERGE_OUTCOMES,
    MERGE_REASONS,
    DecisionLedger,
    frontier_digest,
    replay_adopted,
    validate_ledger,
)
from repro.obs.diff import (
    DIFF_KINDS,
    DIFF_SCHEMA_VERSION,
    diff_ledgers,
    diff_plans,
    format_divergence,
    render_diff_html,
    validate_diff,
    write_diff,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "CounterRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "build_chrome_trace",
    "timeline_trace_events",
    "write_chrome_trace",
    "metrics_to_json",
    "metrics_to_prometheus",
    "write_metrics",
    "DEFAULT_LATENCY_BOUNDS_S",
    "LogHistogram",
    "merge_histograms",
    "RequestContext",
    "TraceBuffer",
    "build_span_tree",
    "current_context",
    "current_request_id",
    "new_request_id",
    "render_statusz",
    "request_context",
    "use_context",
    "SLOG_KIND",
    "SLOG_SCHEMA_VERSION",
    "SlogWriter",
    "make_record",
    "open_slog",
    "validate_slog",
    "AUDIT_SCHEMA_VERSION",
    "DECISION_COUNTER_FAMILIES",
    "LEDGER_SCHEMA_VERSION",
    "MERGE_OUTCOMES",
    "MERGE_REASONS",
    "DecisionLedger",
    "frontier_digest",
    "replay_adopted",
    "validate_ledger",
    "DIFF_KINDS",
    "DIFF_SCHEMA_VERSION",
    "diff_ledgers",
    "diff_plans",
    "format_divergence",
    "render_diff_html",
    "validate_diff",
    "write_diff",
    "MISS_CLASSES",
    "EdgeAudit",
    "MissAttributor",
    "ReuseDistanceTracker",
    "ScheduleAudit",
    "audit_schedule",
    "render_html",
    "validate_audit",
    "write_audit",
    "PHASES",
    "Repeat",
    "environment_fingerprint",
    "mad",
    "phase_breakdown",
    "run_benchmark",
    "render_profile_html",
    "write_profile_html",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_ENGINES",
    "DEFAULT_SWEEP_SIZES",
    "StackProfiler",
    "scope_profiler_to_spans",
    "collapsed_stacks",
    "write_collapsed",
    "profile_planner",
    "fit_exponent",
    "run_sweep",
    "build_profile_doc",
    "validate_profile",
    "compare_exponents",
    "write_profile",
    "load_profile",
]
