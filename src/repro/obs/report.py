"""Metric dumps: JSON and Prometheus text exposition.

The JSON form preserves the registry verbatim
(:meth:`~repro.obs.counters.CounterRegistry.as_dict` plus per-family
totals); the Prometheus form flattens the dotted metric hierarchy to
underscore names (``sim.cache.hits`` -> ``sim_cache_hits``) with one
``# HELP`` + ``# TYPE`` header pair per family and label bodies in
sorted key order, suitable for ``promtool check metrics`` or a
textfile-collector scrape.  The exposition is part of the obs
contract: family order, header order, and label order are all
deterministic, pinned by a golden-output test.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Optional

from repro.obs.counters import CounterRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    out = _NAME_OK.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: Help text for the stable metric families.  Dynamic families fall
#: through to the prefix rules below, then to a generic line — every
#: family always gets a ``# HELP`` header.
METRIC_HELP: Dict[str, str] = {
    "cache.hits": "L2 line hits observed outside the simulator core",
    "run.busy_us": "simulated microseconds spent executing launches",
    "run.gap_us": "simulated microseconds lost to launch gaps",
    "run.l2_hit_rate": "overall L2 hit rate of the replayed schedule",
    "run.total_us": "simulated end-to-end schedule microseconds",
    "sched.candidate_edges": "edges considered by the merge loop",
    "sched.clusters": "clusters in the final partition",
    "sched.invalid_partitions": "merge previews rejected as invalid",
    "sched.merge_attempts": "cluster merges attempted",
    "sched.merges_adopted": "cluster merges adopted",
    "sched.merges_rejected": "cluster merges rejected on cost",
    "sched.tiling_cache_hits": "cluster tilings served from the memo",
    "sched.tilings_evaluated": "cluster tilings computed",
    "decisions.recorded": "decision-ledger entries recorded",
    "decisions.adopted": "ledger merge decisions adopted",
    "decisions.rejected": "ledger merge decisions rejected on cost",
    "decisions.invalid": "ledger merge candidates invalid (reachability/size)",
    "decisions.skipped": "ledger merge candidates already merged",
    "decisions.excluded": "ledger edges excluded by the weight threshold",
    "decisions.tile_rounds": "ledger tile-round events recorded",
    "planner.blocks_visited": "blocks staged by the tiling rounds",
    "planner.footprint_unions": "tile-batch footprint union attempts",
    "planner.footprint_lines": "cache lines admitted into tile footprints",
    "planner.frontier_updates": "readiness-frontier bookkeeping updates",
    "planner.perftable_queries": "performance-table time lookups",
    "planner.merge_probes": "quotient-graph nodes dequeued by validity BFS",
    "planner.weight_evals": "edge-weight saved-time evaluations (memo misses)",
    "planner.edges_weighted": "edges assigned a weight by Algorithm 1",
    "sim.launch.blocks": "blocks issued per simulated launch",
    "sim.launch.count": "simulated kernel launches",
    "sim.launch.time_us": "simulated microseconds per launch",
    "tile.blocks": "blocks covered by the tiled schedule",
    "tile.rounds": "tiling rounds in the adopted schedule",
    "audit.predicted_total_saving_us": (
        "edge-weight model's predicted total saving"
    ),
    "audit.actual_total_saving_us": "replayed default-minus-tiled saving",
    "audit.edge.predicted_us": "per-edge predicted saving",
    "audit.edge.actual_us": "per-edge replayed saving",
    "audit.edge.error_abs_us": "per-edge |predicted - actual|",
    "audit.edge.error_rel": "per-edge relative prediction error",
    "serve.requests": "HTTP requests served, by endpoint and status",
    "serve.plans": "planning jobs executed (one per distinct fingerprint)",
    "serve.memo_hits": "requests answered from the in-process memo",
    "serve.coalesced": "requests that joined an in-flight planning job",
    "serve.errors": "requests rejected with a structured error, by code",
    "serve.latency": (
        "request latency seconds, by endpoint and outcome"
    ),
    "serve.queue_wait": "planner-pool queue wait seconds",
    "serve.telemetry_errors": "request-telemetry emission failures",
    "serve.inflight": "planning jobs currently in flight",
    "serve.memo_entries": "responses held in the in-process memo",
    "serve.uptime_s": "seconds since the daemon started",
}

#: (prefix, help template) rules for dynamically-named families.
_HELP_PREFIXES = (
    ("cache.", "L2 cache counter"),
    ("store.", "artifact-store access counter"),
    ("audit.miss.", "attributed L2 misses by class"),
    ("l2_buffers.", "per-buffer L2 line occupancy track"),
)


def metric_help(name: str) -> str:
    """One-line ``# HELP`` text for a metric family (never empty)."""
    text = METRIC_HELP.get(name)
    if text is not None:
        return text
    for prefix, template in _HELP_PREFIXES:
        if name.startswith(prefix):
            return f"{template} ({name})"
    return f"repro.obs metric family {name}"


def metrics_to_json(registry: CounterRegistry) -> Dict[str, dict]:
    """JSON-ready dict: every family with its samples and total."""
    out = registry.as_dict()
    for name, family in out.items():
        family["total"] = registry.total(name)
    return out


def metrics_to_prometheus(registry: CounterRegistry) -> str:
    """Prometheus text-format exposition of every metric family.

    Fully deterministic: families in sorted name order, a ``# HELP``
    then ``# TYPE`` header per family, samples in sorted label order.
    """
    lines = []
    for name in registry.names():
        prom = _prom_name(name)
        kind = registry.kind(name)
        lines.append(f"# HELP {prom} {metric_help(name)}")
        lines.append(f"# TYPE {prom} {kind}")
        if kind == "histogram":
            _histogram_lines(lines, prom, registry.histograms(name))
            continue
        for labels, value in registry.samples(name):
            if labels:
                body = ",".join(
                    f'{_LABEL_OK.sub("_", k)}="{_prom_label_value(v)}"'
                    for k, v in sorted(labels.items())
                )
                lines.append(f"{prom}{{{body}}} {value:g}")
            else:
                lines.append(f"{prom} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_lines(lines: list, prom: str, samples) -> None:
    """Render one histogram family: per label set, cumulative
    ``_bucket`` lines (``le`` last, Prometheus convention), then
    ``_sum`` and ``_count``."""
    for labels, hist in samples:
        base = ",".join(
            f'{_LABEL_OK.sub("_", k)}="{_prom_label_value(v)}"'
            for k, v in sorted(labels.items())
        )
        for le, cumulative in hist.bucket_pairs():
            body = f'{base},le="{le}"' if base else f'le="{le}"'
            lines.append(f"{prom}_bucket{{{body}}} {cumulative}")
        tail = f"{{{base}}}" if base else ""
        lines.append(f"{prom}_sum{tail} {hist.sum:.12g}")
        lines.append(f"{prom}_count{tail} {hist.count}")


def write_metrics(
    registry: CounterRegistry,
    prom_path: Optional[str] = None,
    json_path: Optional[str] = None,
) -> None:
    """Write the registry in one or both formats."""
    if prom_path:
        with open(prom_path, "w", encoding="utf-8") as fh:
            fh.write(metrics_to_prometheus(registry))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(metrics_to_json(registry), fh, indent=2, sort_keys=True)
