"""The Application Tiling heuristic — Algorithm 1 of the paper.

Starting from singleton clusters (one per kernel, costed at the
kernel's default execution time), repeatedly try to merge the two
clusters joined by the highest-weight remaining candidate edge:

* if the merged partition is invalid (the cluster quotient would
  cycle), skip to the next candidate edge *without* discarding this
  one — a later merge may make it valid;
* if it is valid, tile the merged cluster with Algorithm 2 and adopt
  the merge only when the tiled cost beats the two clusters' combined
  cost; either way the edge is consumed and scanning restarts from the
  highest-weight candidate.

The loop ends when the candidate list is exhausted or no remaining
candidate yields a valid partition.  The final schedule concatenates
each cluster's tiling sequence in cluster topological order (≺C
combined with ≺C_sch, §IV-C1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.core.cluster import Partition
from repro.core.cluster_tile import ClusterStructure, ClusterTiling, cost_structure
from repro.core.fast_cluster import make_partition
from repro.core.perftable import PerfTableSet
from repro.core.schedule import Schedule
from repro.core.subkernel import SubKernel
from repro.core.weights import EdgeWeights, excluded_edges, select_candidates
from repro.core.work import PlannerWork
from repro.errors import TilingError
from repro.graph.kernel_graph import KernelGraph
from repro.obs.decisions import DECISION_COUNTER_FAMILIES, DecisionLedger
from repro.obs.tracer import NULL_TRACER


@dataclass
class TilingStats:
    """Telemetry of one Algorithm 1 run.

    ``work`` holds the run's deterministic work counters (see
    :mod:`repro.core.work`): edge-weighting work seeded from the
    :class:`~repro.core.weights.EdgeWeights`, merge-validity probes
    from the main loop, and per-cluster Algorithm 2 work charged when a
    tiling is *consumed* — so the tally is bit-identical across planner
    backends, like the rest of the stats.
    """

    candidate_edges: int = 0
    merge_attempts: int = 0
    invalid_partitions: int = 0
    adopted_merges: int = 0
    rejected_merges: int = 0
    tilings_evaluated: int = 0
    tiling_cache_hits: int = 0
    work: PlannerWork = field(default_factory=PlannerWork)


@dataclass
class TilingResult:
    """Schedule plus the partition and per-cluster tilings behind it.

    ``ledger`` is the run's decision ledger (see
    :mod:`repro.obs.decisions`): every merge candidate Algorithm 1
    settled and every tiling round Algorithm 2 froze, in consume order.
    It is recorded unconditionally (provenance is part of the plan, not
    of tracing), bit-identical across planner backends, and persisted
    through plan artifacts.
    """

    schedule: Schedule
    partition: Partition
    tilings: Dict[int, ClusterTiling]
    estimated_cost_us: float
    stats: TilingStats
    ledger: DecisionLedger = field(default_factory=DecisionLedger)


def _singleton_tiling(
    graph: KernelGraph, node_id: int, default_time_us: float, launch_overhead_us: float
) -> ClusterTiling:
    node = graph.node(node_id)
    sub = SubKernel(
        node_id=node_id,
        blocks=tuple(node.kernel.all_block_ids()),
        label=node.name,
    )
    return ClusterTiling(
        nodes=frozenset((node_id,)),
        subkernels=(sub,),
        cost_us=default_time_us + launch_overhead_us,
        rounds=1,
    )


def application_tile(
    graph: KernelGraph,
    structure_of: Callable[[FrozenSet[int]], ClusterStructure],
    perf_tables: PerfTableSet,
    weights: EdgeWeights,
    default_times_us: Dict[int, float],
    threshold_us: float = 0.0,
    launch_overhead_us: float = 0.0,
    max_cluster_nodes: Optional[int] = None,
    tracer=NULL_TRACER,
    planner_backend: Optional[str] = None,
) -> TilingResult:
    """Algorithm 1.

    ``default_times_us`` maps node id to the kernel's execution time in
    the default mode (the paper's ``kerExeTimes``).  The optional
    ``max_cluster_nodes`` caps cluster growth — an extension beyond the
    paper that bounds scheduling time on very deep graphs (``None``
    reproduces the paper exactly).

    ``planner_backend`` selects the partition engine (reference BFS
    oracle or the bitset reachability index of
    :mod:`repro.core.fast_cluster`); both make identical merge
    decisions by contract, differing only in the validity-family work
    counters.

    ``structure_of`` returns Algorithm 2's frequency-independent
    structure of a node set (:func:`~repro.core.cluster_tile.tile_structure`
    over the block graph, memory lines, cache size and dependency
    variant the caller plans with); :meth:`KTiler.structure
    <repro.core.ktiler.KTiler.structure>` serves it from a memo or the
    artifact store before computing it.  Each node set this run
    evaluates is asked for once and priced at ``perf_tables``; the
    evaluation charges the structure's full work and emits its
    ``tile.*`` events however the structure was obtained.

    With tracing enabled, every merge decision is emitted as a
    ``sched.merge`` instant event carrying the candidate edge, its
    weight, the cost delta the cost model saw, and the verdict
    (``adopted`` / ``rejected`` / ``invalid``); run totals land in
    ``tracer.metrics`` under ``sched.*``.
    """
    for node in graph:
        if node.node_id not in default_times_us:
            raise TilingError(f"missing default time for node {node.node_id}")

    stats = TilingStats()
    stats.work.weight_evals = weights.weight_evals
    stats.work.edges_weighted = weights.edges_weighted
    partition = make_partition(graph, planner_backend, work=stats.work)
    tilings: Dict[int, ClusterTiling] = {
        node.node_id: _singleton_tiling(
            graph, node.node_id, default_times_us[node.node_id], launch_overhead_us
        )
        for node in graph
    }

    candidates = select_candidates(graph, weights, threshold_us)
    stats.candidate_edges = len(candidates)
    ledger = DecisionLedger()
    # Every data edge the threshold kept out of the candidate list is a
    # settled decision too — record it up front so the ledger covers
    # the whole data-edge set of the graph.
    for edge in excluded_edges(graph, weights, threshold_us):
        ledger.record_merge(
            src=edge.src,
            dst=edge.dst,
            buffer=edge.buffer.name,
            weight_us=round(weights.weight(edge), 3),
            outcome="excluded",
            reason="threshold",
        )
    tiling_memo: Dict[FrozenSet[int], Optional[ClusterTiling]] = {}
    trace_on = tracer.enabled

    index = 0
    while index < len(candidates):
        edge = candidates[index]
        cluster_a = partition.cluster_of(edge.src)
        cluster_b = partition.cluster_of(edge.dst)
        if cluster_a == cluster_b:
            # Already merged through another edge; consume the edge.
            ledger.record_merge(
                src=edge.src,
                dst=edge.dst,
                buffer=edge.buffer.name,
                weight_us=round(weights.weight(edge), 3),
                outcome="skipped",
                reason="already_merged",
                cluster_a=cluster_a,
                cluster_b=cluster_b,
            )
            candidates.pop(index)
            index = 0
            continue
        stats.merge_attempts += 1
        oversized = (
            max_cluster_nodes is not None
            and len(partition.members(cluster_a)) + len(partition.members(cluster_b))
            > max_cluster_nodes
        )
        if oversized or not partition.can_merge(cluster_a, cluster_b, stats.work):
            # Invalid partition: try the next edge, keep this one.
            stats.invalid_partitions += 1
            entry = ledger.record_merge(
                src=edge.src,
                dst=edge.dst,
                buffer=edge.buffer.name,
                weight_us=round(weights.weight(edge), 3),
                outcome="invalid",
                reason="oversized" if oversized else "reachability",
                **partition.merge_preview(cluster_a, cluster_b),
            )
            if trace_on:
                # The trace instant derives from the ledger entry
                # (same shape as always), so trace and ledger cannot
                # disagree.
                tracer.instant(
                    "sched.merge",
                    cat="scheduler",
                    decision=entry["outcome"],
                    src=entry["src"],
                    dst=entry["dst"],
                    weight_us=entry["weight_us"],
                    oversized=entry["reason"] == "oversized",
                    cluster_a=entry["cluster_a"],
                    cluster_b=entry["cluster_b"],
                    size_a=entry["size_a"],
                    size_b=entry["size_b"],
                    out_degree_a=entry["out_degree_a"],
                    out_degree_b=entry["out_degree_b"],
                )
            index += 1
            continue
        merged_nodes = partition.members(cluster_a) | partition.members(cluster_b)
        tiling = tiling_memo.get(merged_nodes, _MISSING)
        if tiling is _MISSING:
            stats.tilings_evaluated += 1
            with tracer.span(
                "tile.cluster", cat="tile", nodes=len(merged_nodes)
            ):
                tiling = cost_structure(
                    structure_of(merged_nodes),
                    perf_tables,
                    launch_overhead_us,
                    tracer,
                )
            tiling_memo[merged_nodes] = tiling
            _charge_work(stats, tiling, ledger, tracer, trace_on)
        else:
            stats.tiling_cache_hits += 1
        combined = tilings[cluster_a].cost_us + tilings[cluster_b].cost_us
        adopt = tiling is not None and tiling.cost_us < combined
        if adopt:
            reason = "cost_improves"
        elif tiling is None:
            reason = "untileable"
        else:
            reason = "cost_no_gain"
        entry = ledger.record_merge(
            src=edge.src,
            dst=edge.dst,
            buffer=edge.buffer.name,
            weight_us=round(weights.weight(edge), 3),
            outcome="adopted" if adopt else "rejected",
            reason=reason,
            combined_cost_us=round(combined, 3),
            tiled_cost_us=(
                None if tiling is None else round(tiling.cost_us, 3)
            ),
            cost_delta_us=(
                None if tiling is None else round(combined - tiling.cost_us, 3)
            ),
            **partition.merge_preview(cluster_a, cluster_b),
        )
        if trace_on:
            # Derived from the ledger entry — one source of truth.
            tracer.instant(
                "sched.merge",
                cat="scheduler",
                decision=entry["outcome"],
                src=entry["src"],
                dst=entry["dst"],
                weight_us=entry["weight_us"],
                combined_cost_us=entry["combined_cost_us"],
                tiled_cost_us=entry["tiled_cost_us"],
                cost_delta_us=entry["cost_delta_us"],
                untileable=entry["reason"] == "untileable",
                cluster_a=entry["cluster_a"],
                cluster_b=entry["cluster_b"],
                size_a=entry["size_a"],
                size_b=entry["size_b"],
                out_degree_a=entry["out_degree_a"],
                out_degree_b=entry["out_degree_b"],
            )
        if adopt:
            partition = partition.merged(cluster_a, cluster_b, work=stats.work)
            new_id = min(cluster_a, cluster_b)
            dead_id = max(cluster_a, cluster_b)
            del tilings[dead_id]
            tilings[new_id] = tiling
            stats.adopted_merges += 1
        else:
            stats.rejected_merges += 1
        candidates.pop(index)
        index = 0

    if trace_on:
        m = tracer.metrics
        m.inc("sched.candidate_edges", stats.candidate_edges)
        m.inc("sched.merge_attempts", stats.merge_attempts)
        m.inc("sched.merges_adopted", stats.adopted_merges)
        m.inc("sched.merges_rejected", stats.rejected_merges)
        m.inc("sched.invalid_partitions", stats.invalid_partitions)
        m.inc("sched.tilings_evaluated", stats.tilings_evaluated)
        m.inc("sched.tiling_cache_hits", stats.tiling_cache_hits)
        m.set_gauge("sched.clusters", len(partition))
        summary = ledger.summary()
        for family, summary_field in DECISION_COUNTER_FAMILIES:
            m.inc(family, summary[summary_field])
        for name, value in stats.work.as_dict().items():
            m.inc(f"planner.{name}", value)
        # Closing sample of the cumulative work track (see _charge_work).
        tracer.sim_counter(
            "planner.work",
            float(stats.tilings_evaluated + 1),
            stats.work.as_dict(),
            cat="planner",
        )

    # Assemble the schedule: cluster topological order, then each
    # cluster's tiling sequence.
    subkernels: List[SubKernel] = []
    total_cost = 0.0
    for cluster_id in partition.topo_order():
        tiling = tilings[cluster_id]
        subkernels.extend(tiling.subkernels)
        total_cost += tiling.cost_us
    schedule = Schedule(subkernels=subkernels, name="ktiler")
    return TilingResult(
        schedule=schedule,
        partition=partition,
        tilings=tilings,
        estimated_cost_us=total_cost,
        stats=stats,
        ledger=ledger,
    )


def _charge_work(
    stats: TilingStats,
    tiling: Optional[ClusterTiling],
    ledger: DecisionLedger,
    tracer,
    trace_on: bool,
) -> None:
    """Fold a consumed tiling's work and ledger events into the run.

    Called exactly once per *evaluation* (memo miss) — never on memo
    hits, which re-use a tiling the run already paid for.  Untileable
    clusters (``None``) charge nothing.  The tiling's ``tile_round``
    ledger events are appended here, at the same consume-time site as
    the work counters, so ledger and work tally follow one order.

    With tracing on, each charge also appends one sample to the
    cumulative ``planner.work`` counter track.  The timestamp is the
    evaluation ordinal — deterministic, unlike wall time — so Perfetto
    shows planner work *per evaluation* alongside the ``l2_buffers.*``
    tracks and two runs of the same plan produce identical tracks.
    """
    if tiling is None:
        return
    stats.work.add(tiling.work)
    ledger.record_tile_events(tiling.ledger_events)
    if trace_on:
        tracer.sim_counter(
            "planner.work",
            float(stats.tilings_evaluated),
            stats.work.as_dict(),
            cat="planner",
        )


class _Missing:
    """Sentinel distinguishing 'not memoized' from 'memoized as None'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()

