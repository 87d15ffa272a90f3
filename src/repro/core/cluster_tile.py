"""The ClusterTile heuristic — Algorithm 2 of the paper.

Given a cluster (a set of application-graph nodes executed
contiguously), produce its *tiling sequence*: a totally ordered list of
sub-kernels that (i) partitions every member kernel's blocks,
(ii) respects all block dependencies, and (iii) keeps the memory
footprint of each tiling round within the L2 cache.

Each iteration runs two rounds, exactly as in the paper:

* **bottom-up** — pick the next unassigned block of each bottom (sink)
  kernel and pull in all its direct and indirect in-cluster
  dependencies (the minimal work needed to make leaf progress);
* **top-down** — add any further blocks whose dependencies are already
  covered, maximizing data reuse and GPU utilization "for free".

When the accumulated footprint would exceed the cache, the blocks
gathered so far are frozen into one sub-kernel per member node (in
topological node order), their estimated execution times (from the
performance tables, looked up by grid size and in-cluster input
combination) are added to the cluster cost, and a new round begins.
A round that cannot make progress means the cluster is untileable:
cost = infinity (``None`` is returned).

The heuristic runs as two passes.  :func:`tile_structure` walks the
blocks over the integer ids of
:class:`~repro.graph.block_graph.BlockIdView` and returns a
:class:`ClusterStructure`: rounds, sub-kernels, footprints, ledger
events and structural work — everything that depends on the node set,
the block graph, the memory lines, the L2 size and the dependency
variant, and nothing that depends on the operating point.
:func:`cost_structure` prices a structure at one operating point: it
queries the performance tables sub-kernel by sub-kernel in freeze order
(so the float summation order and the query count are those of a single
pass) and emits the ``tile.*`` trace instants and metrics.
:class:`~repro.core.ktiler.KTiler` keeps the structure of every cluster
it has tiled, in memory and in its artifact store, and only re-costs it
at each DVFS point; :func:`cluster_tile` runs both passes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from repro.analyzer.footprint import BlockMemoryLines
from repro.core.perftable import PerfTableSet
from repro.core.subkernel import SubKernel
from repro.core.work import PlannerWork
from repro.errors import GraphError, TilingError
from repro.graph.block_graph import BlockDependencyGraph
from repro.graph.kernel_graph import KernelGraph
from repro.obs.decisions import frontier_digest
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class ClusterTiling:
    """The tiling sequence of one cluster and its estimated cost.

    ``work`` carries the deterministic work counters Algorithm 2 spent
    producing this tiling.  It travels with the tiling itself (through
    memo hits and the artifact store) so the merge loop can charge it
    at *consume* time, once per evaluation.

    ``ledger_events`` carries the tiling's ``tile_round`` decision-ledger
    entries (sans ``seq``, assigned when the run ledger consumes them)
    under the same contract: recorded here unconditionally, appended to
    the run's :class:`~repro.obs.decisions.DecisionLedger` only at the
    merge loop's consume-time charge site, so the ledger is
    bit-identical across planner backends.
    """

    nodes: FrozenSet[int]
    subkernels: Tuple[SubKernel, ...]
    cost_us: float
    rounds: int
    work: PlannerWork = field(default_factory=PlannerWork)
    ledger_events: Tuple[Dict, ...] = ()

    @property
    def num_launches(self) -> int:
        return len(self.subkernels)


class DroppedBatch(NamedTuple):
    """A batch the cache constraint rejected (one ``tile.drop`` instant)."""

    round: int
    blocks: int
    footprint_bytes: int


class FrozenRound(NamedTuple):
    """One frozen tiling round: its ``tile_round`` ledger event and its
    launches, each ``(sub-kernel, kernel spec, in-cluster input combo)``."""

    event: Dict
    launches: Tuple[Tuple[SubKernel, object, FrozenSet[str]], ...]


@dataclass(frozen=True)
class ClusterStructure:
    """The frequency-independent outcome of Algorithm 2 for one cluster.

    ``steps`` lists, in the order the pass met them, the batches the
    cache constraint dropped and the rounds it froze.  An untileable
    cluster (``tileable`` false) keeps the steps before that verdict,
    because pricing them is what a single pass did (and what lazily
    profiled performance tables observe).  ``work`` holds the
    structural counters (every ``PlannerWork`` field but
    ``perftable_queries``, which the cost pass charges).

    Immutable and shared: a :class:`~repro.core.ktiler.KTiler` prices
    the same structure at every operating point, and each pricing gets
    its own ``PlannerWork``.  The sub-kernels and ledger event dicts
    are shared by every tiling priced from it; the events must not be
    mutated (the run ledger copies them).
    """

    nodes: FrozenSet[int]
    label: str
    cache_bytes: int
    steps: Tuple[Union[DroppedBatch, FrozenRound], ...]
    tileable: bool
    work: Tuple[Tuple[str, int], ...]


def in_cluster_input_combo(
    graph: KernelGraph, node_id: int, cluster_nodes: Set[int]
) -> FrozenSet[str]:
    """Input buffers of ``node_id`` produced inside the cluster.

    These are the inputs "provided by tiling" — the performance-table
    combination key for the node's sub-kernels (§IV-C).
    """
    return frozenset(
        e.buffer.name
        for e in graph.edges_in(node_id, data_only=True)
        if e.src in cluster_nodes
    )


def cluster_sinks(graph: KernelGraph, cluster_nodes: Set[int]) -> List[int]:
    """Bottom kernels: members with no in-cluster data consumer."""
    return sorted(
        v
        for v in cluster_nodes
        if not any(e.dst in cluster_nodes for e in graph.edges_out(v, data_only=True))
    )


def cluster_tile(
    cluster_nodes: Iterable[int],
    graph: KernelGraph,
    block_graph: BlockDependencyGraph,
    mem_lines: BlockMemoryLines,
    perf_tables: PerfTableSet,
    cache_bytes: int,
    launch_overhead_us: float = 0.0,
    include_anti: bool = True,
    tracer=NULL_TRACER,
    audit_frontier: bool = False,
) -> Optional[ClusterTiling]:
    """Algorithm 2.  Returns None when the cluster cannot be tiled.

    With tracing enabled, every frozen tiling round emits a
    ``tile.round`` instant event recording how full the round grew
    before freezing (footprint bytes vs. the L2 budget) and how many
    blocks/sub-kernels it gathered, and every batch the cache
    constraint rejects emits a ``tile.drop`` instant; totals accumulate
    under ``tile.*`` in ``tracer.metrics``.

    ``audit_frontier`` cross-checks the incremental readiness frontier
    against a from-scratch recount after every committed batch and
    every dropped one (test/debug only — O(blocks × preds) per check,
    charges no work).
    """
    structure = tile_structure(
        cluster_nodes,
        graph,
        block_graph,
        mem_lines,
        cache_bytes,
        include_anti=include_anti,
        audit_frontier=audit_frontier,
    )
    return cost_structure(structure, perf_tables, launch_overhead_us, tracer)


def cost_structure(
    structure: ClusterStructure,
    perf_tables: PerfTableSet,
    launch_overhead_us: float = 0.0,
    tracer=NULL_TRACER,
) -> Optional[ClusterTiling]:
    """Price a cluster structure at the performance tables' operating point.

    Replays the structure's steps in order: each dropped batch emits its
    ``tile.drop`` instant, each frozen round its ``tile.round`` instant
    and then one performance-table query per sub-kernel.  Returns
    ``None`` for an untileable structure, after the same replay.
    """
    work = PlannerWork(**dict(structure.work))
    trace_on = tracer.enabled
    label = structure.label
    cost_us = 0.0
    subkernels: List[SubKernel] = []
    ledger_events: List[Dict] = []
    for step in structure.steps:
        if isinstance(step, DroppedBatch):
            if trace_on:
                tracer.instant(
                    "tile.drop",
                    cat="tiler",
                    cluster=label,
                    round=step.round,
                    blocks=step.blocks,
                    footprint_bytes=step.footprint_bytes,
                    cache_bytes=structure.cache_bytes,
                )
                tracer.metrics.inc("tile.drops", 1, cluster=label)
                tracer.metrics.inc("tile.dropped_blocks", step.blocks, cluster=label)
            continue
        event = step.event
        ledger_events.append(event)
        if trace_on:
            # The trace instant derives from the ledger entry, so the
            # two can never disagree.
            tracer.instant(
                "tile.round",
                cat="tiler",
                cluster=event["cluster"],
                round=event["round"],
                blocks=event["blocks"],
                nodes=event["nodes"],
                footprint_bytes=event["footprint_bytes"],
                cache_bytes=event["cache_bytes"],
                l2_occupancy=event["l2_occupancy"],
            )
            tracer.metrics.inc("tile.rounds", 1, cluster=label)
            tracer.metrics.inc("tile.blocks", event["blocks"], cluster=label)
            tracer.metrics.set_gauge(
                "tile.l2_occupancy",
                event["footprint_bytes"] / event["cache_bytes"],
                cluster=label,
            )
        for sub, kernel, combo in step.launches:
            subkernels.append(sub)
            cost_us += (
                perf_tables.time(kernel, combo, sub.num_blocks, work=work)
                + launch_overhead_us
            )
    if not structure.tileable:
        return None
    return ClusterTiling(
        nodes=structure.nodes,
        subkernels=tuple(subkernels),
        cost_us=cost_us,
        rounds=len(ledger_events),
        work=work,
        ledger_events=tuple(ledger_events),
    )


def tile_structure(
    cluster_nodes: Iterable[int],
    graph: KernelGraph,
    block_graph: BlockDependencyGraph,
    mem_lines: BlockMemoryLines,
    cache_bytes: int,
    include_anti: bool = True,
    audit_frontier: bool = False,
) -> ClusterStructure:
    """The block-level pass of Algorithm 2 (see :func:`cluster_tile`).

    Per-call state is indexed by block id:

    * ``busy`` — 1 for a block outside the cluster or covered (staged,
      in the current round or assigned to a frozen one), 0 for a free
      in-cluster block, so every "skip this block" test is one lookup;
    * ``missing`` — the readiness frontier: a block's uncovered
      in-cluster predecessors, -1 while untracked.  A count is
      initialized on first query and then adjusted on every cover and
      uncover; each initialization and each adjustment of a tracked
      count charges one ``frontier_updates``;
    * the round's footprint, a set of line ids.  A rejected batch
      leaves lines in it, but a rejection always freezes or abandons
      the round, which starts the next round from an empty set; the
      committed line count is kept apart for the ledger.

    The visiting order is that of the paper's pseudo-code: LIFO stacks
    for the dependency closure and the readiness walk, RAW consumers
    only in the readiness walk.  A block whose last missing predecessor
    is covered through an anti-dependency is not re-checked there, so
    the result depends on this order.
    """
    node_set: Set[int] = set(cluster_nodes)
    if not node_set:
        raise TilingError("cannot tile an empty cluster")
    nodes = sorted(node_set)  # insertion order == topological order
    members = [graph.node(v) for v in nodes]
    totals = [node.num_blocks for node in members]
    total_blocks = sum(totals)
    combos = [in_cluster_input_combo(graph, v, node_set) for v in nodes]
    sinks = cluster_sinks(graph, node_set)
    if cache_bytes <= 0:
        raise GraphError("footprint budget must be positive")
    line_bytes = mem_lines.line_bytes
    budget_lines = cache_bytes // line_bytes

    view = block_graph.id_view(include_anti)
    preds = view.preds
    succs = view.succs
    num_consumers = view.num_consumers
    starts = []
    busy = bytearray(b"\x01") * view.num_blocks
    lines_of: List[Optional[FrozenSet[int]]] = [None] * view.num_blocks
    for v, total in zip(nodes, totals):
        if v >= len(view.sizes) or view.sizes[v] != total:
            raise GraphError(f"block graph does not hold the {total} blocks of node {v}")
        lo = view.base[v]
        starts.append(lo)
        busy[lo : lo + total] = bytes(total)
        lines_of[lo : lo + total] = [mem_lines.lines_of((v, b)) for b in range(total)]
    missing = [-1] * view.num_blocks
    sink_indices = [nodes.index(v) for v in sinks]
    cursors = list(starts)
    ends = [lo + total for lo, total in zip(starts, totals)]

    def node_index(block: int) -> int:
        return bisect_right(starts, block) - 1

    def cover(block: int) -> int:
        """Mark ``block`` covered in the frontier; returns adjustments."""
        adjusted = 0
        for succ in succs[block]:
            if missing[succ] >= 0:
                missing[succ] -= 1
                adjusted += 1
        return adjusted

    def uncover(block: int) -> int:
        adjusted = 0
        for succ in succs[block]:
            if missing[succ] >= 0:
                missing[succ] += 1
                adjusted += 1
        return adjusted

    def audit() -> None:
        """Recount every tracked block from scratch (charges nothing)."""
        drift = {}
        for block, count in enumerate(missing):
            if count >= 0:
                expected = sum(1 for p in preds[block] if not busy[p])
                if expected != count:
                    i = node_index(block)
                    drift[(nodes[i], block - starts[i])] = (count, expected)
        if drift:
            raise TilingError(
                f"readiness frontier out of sync (incremental, expected): {drift}"
            )

    def next_free_block(i: int) -> int:
        """Lowest free block of ``nodes[i]``, or -1 when none is left."""
        block = cursors[i]
        end = ends[i]
        while block < end and busy[block]:
            block += 1
        cursors[i] = block
        return block if block < end else -1

    label = f"c{min(node_set)}"
    current: List[int] = []  # toBeAssigned: block ids committed to this round
    footprint: Set[int] = set()
    footprint_lines = 0
    assigned = 0
    rounds = 0
    steps: List[Union[DroppedBatch, FrozenRound]] = []
    blocks_visited = footprint_unions = lines_admitted = frontier_updates = 0

    def flush_round() -> bool:
        """Freeze ``current`` into sub-kernels; True if anything was frozen."""
        nonlocal assigned, rounds, footprint_lines
        if not current:
            return False
        current.sort()
        launches = []
        lo_index = 0
        for i, v in enumerate(nodes):
            hi_index = bisect_left(current, ends[i], lo_index)
            if hi_index > lo_index:
                start = starts[i]
                sub = SubKernel(
                    node_id=v,
                    blocks=tuple([b - start for b in current[lo_index:hi_index]]),
                    label=f"{members[i].name}/r{rounds}",
                )
                launches.append((sub, members[i].kernel, combos[i]))
                lo_index = hi_index
        footprint_bytes = footprint_lines * line_bytes
        event = {
            "kind": "tile_round",
            "cluster": label,
            "round": rounds,
            "blocks": len(current),
            "nodes": len(launches),
            "footprint_bytes": footprint_bytes,
            "cache_bytes": cache_bytes,
            "l2_occupancy": round(footprint_bytes / cache_bytes, 6),
            "frontier_digest": frontier_digest(
                (sub.node_id, b) for sub, _, _ in launches for b in sub.blocks
            ),
        }
        steps.append(FrozenRound(event, tuple(launches)))
        assigned += len(current)
        current.clear()
        footprint.clear()
        footprint_lines = 0
        rounds += 1
        return True

    def structure(tileable: bool) -> ClusterStructure:
        return ClusterStructure(
            nodes=frozenset(node_set),
            label=label,
            cache_bytes=cache_bytes,
            steps=tuple(steps),
            tileable=tileable,
            work=(
                ("blocks_visited", blocks_visited),
                ("footprint_unions", footprint_unions),
                ("footprint_lines", lines_admitted),
                ("frontier_updates", frontier_updates),
            ),
        )

    while assigned < total_blocks:
        batch: List[int] = []
        # --- bottom-up round -----------------------------------------
        picks = [next_free_block(i) for i in sink_indices]
        if max(picks, default=-1) < 0:
            # Sinks exhausted; pick up stragglers from inner nodes so the
            # sub-kernels still partition every member kernel's blocks.
            picks = []
            for i in range(len(nodes)):
                block = next_free_block(i)
                if block >= 0:
                    picks.append(block)
                    break
        for block in picks:
            if block >= 0:
                busy[block] = 1
                blocks_visited += 1
                frontier_updates += cover(block)
                batch.append(block)
        if not batch:
            # Everything is gathered; freeze the final round.
            flush_round()
            break
        # FindAllDeps: in-cluster transitive dependencies not yet covered.
        stack = list(batch)
        while stack:
            for pred in preds[stack.pop()]:
                if busy[pred]:
                    continue
                busy[pred] = 1
                blocks_visited += 1
                frontier_updates += cover(pred)
                batch.append(pred)
                stack.append(pred)
        # --- top-down round: FindMoreBlks ----------------------------
        stack = list(batch)
        while stack:
            block = stack.pop()
            consumers = succs[block]
            if num_consumers[block] != len(consumers):
                consumers = consumers[: num_consumers[block]]
            for consumer in consumers:
                if busy[consumer]:
                    continue
                count = missing[consumer]
                if count < 0:
                    count = 0
                    for pred in preds[consumer]:
                        if not busy[pred]:
                            count += 1
                    missing[consumer] = count
                    frontier_updates += 1
                if count == 0:
                    busy[consumer] = 1
                    blocks_visited += 1
                    frontier_updates += cover(consumer)
                    batch.append(consumer)
                    stack.append(consumer)
        # --- cache constraint (line 13) ------------------------------
        footprint_unions += 1
        footprint.update(*map(lines_of.__getitem__, batch))
        if len(footprint) <= budget_lines:
            lines_admitted += len(footprint) - footprint_lines
            footprint_lines = len(footprint)
            current.extend(batch)
            if audit_frontier:
                audit()
        else:
            steps.append(DroppedBatch(rounds, len(batch), footprint_lines * line_bytes))
            if not flush_round():
                # Not a single new sub-kernel could be formed: untileable.
                return structure(tileable=False)
            # The failed batch is dropped; its blocks are free again and
            # will be re-gathered next iteration.  Only the dropped
            # blocks became free, so only their nodes' cursors can point
            # past a free block: rewind each to the lowest dropped block.
            for block in batch:
                frontier_updates += uncover(block)
                busy[block] = 0
                i = node_index(block)
                if block < cursors[i]:
                    cursors[i] = block
            if audit_frontier:
                audit()

    if assigned != total_blocks:
        raise TilingError(
            f"cluster tiling lost blocks: {assigned}/{total_blocks}"
        )
    return structure(tileable=True)
