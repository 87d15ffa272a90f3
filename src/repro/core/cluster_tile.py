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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analyzer.footprint import BlockMemoryLines, FootprintAccumulator
from repro.core.perftable import PerfTableSet
from repro.core.subkernel import SubKernel
from repro.core.work import PlannerWork
from repro.errors import TilingError
from repro.gpusim.trace import BlockKey
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


class ReadinessFrontier:
    """Incremental per-block count of uncovered in-cluster predecessors.

    The top-down round asks, per candidate block, "are all in-cluster
    dependencies covered?".  Rescanning the predecessor list per
    candidate per round is the O(preds) cost FindMoreBlks used to pay;
    this frontier keeps the counts incrementally instead: initialized
    lazily on first query, decremented as coverage grows (every batch
    append), incremented when it shrinks (a batch dropped by the cache
    constraint).

    Work accounting: every lazy initialization and every cover/uncover
    adjustment of a tracked count charges one ``frontier_updates``.
    :meth:`recompute` / :meth:`validate` are the from-scratch oracle —
    they charge nothing, so audits cannot perturb the counters
    (``tests/test_cluster_tile_properties.py`` drives them through the
    dropped-batch path).
    """

    def __init__(
        self,
        block_graph: BlockDependencyGraph,
        node_set: Set[int],
        include_anti: bool,
        work: PlannerWork,
    ):
        self._block_graph = block_graph
        self._node_set = node_set
        self._include_anti = include_anti
        self._work = work
        self._missing: Dict[BlockKey, int] = {}

    def _predecessors(self, key: BlockKey):
        if self._include_anti:
            return self._block_graph.all_predecessors(key)
        return self._block_graph.producers(key)

    def _successors(self, key: BlockKey):
        if self._include_anti:
            return self._block_graph.consumers(key) + self._block_graph.anti_consumers(
                key
            )
        return self._block_graph.consumers(key)

    def missing_count(self, key: BlockKey, covered) -> int:
        """Uncovered in-cluster predecessors of ``key`` (lazy init).

        ``covered`` is the caller's coverage predicate over block keys.
        """
        count = self._missing.get(key)
        if count is None:
            count = sum(
                1
                for p in self._predecessors(key)
                if p[0] in self._node_set and not covered(p)
            )
            self._missing[key] = count
            self._work.frontier_updates += 1
        return count

    def note_covered(self, key: BlockKey) -> None:
        missing = self._missing
        for succ in self._successors(key):
            if succ in missing:
                missing[succ] -= 1
                self._work.frontier_updates += 1

    def note_uncovered(self, key: BlockKey) -> None:
        missing = self._missing
        for succ in self._successors(key):
            if succ in missing:
                missing[succ] += 1
                self._work.frontier_updates += 1

    def recompute(self, covered) -> Dict[BlockKey, int]:
        """From-scratch counts for every tracked block (the audit oracle)."""
        return {
            key: sum(
                1
                for p in self._predecessors(key)
                if p[0] in self._node_set and not covered(p)
            )
            for key in self._missing
        }

    def validate(self, covered) -> None:
        """Raise :class:`TilingError` if any incremental count drifted."""
        expected = self.recompute(covered)
        if expected != self._missing:
            drift = {
                key: (self._missing[key], expected[key])
                for key in expected
                if expected[key] != self._missing[key]
            }
            raise TilingError(
                f"readiness frontier out of sync (incremental, expected): {drift}"
            )


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
    against a from-scratch recomputation after every committed batch
    and every dropped one (test/debug only — O(blocks × preds) per
    check, charges no work).
    """
    node_set: Set[int] = set(cluster_nodes)
    if not node_set:
        raise TilingError("cannot tile an empty cluster")
    nodes = sorted(node_set)  # insertion order == topological order
    totals: Dict[int, int] = {v: graph.node(v).num_blocks for v in nodes}
    total_blocks = sum(totals.values())
    combos = {v: in_cluster_input_combo(graph, v, node_set) for v in nodes}
    sinks = cluster_sinks(graph, node_set)

    assigned: Set[BlockKey] = set()
    current: Set[BlockKey] = set()  # toBeAssigned, committed to this round
    current_per_node: Dict[int, List[int]] = {v: [] for v in nodes}
    cursors: Dict[int, int] = {v: 0 for v in nodes}
    acc = FootprintAccumulator(mem_lines, cache_bytes)
    work = PlannerWork()

    subkernels: List[SubKernel] = []
    ledger_events: List[Dict] = []
    cost_us = 0.0
    rounds = 0

    def next_free_block(v: int, staged: Set[BlockKey]) -> Optional[int]:
        cursor = cursors[v]
        total = totals[v]
        while cursor < total and (
            (v, cursor) in assigned or (v, cursor) in current or (v, cursor) in staged
        ):
            cursor += 1
        cursors[v] = cursor
        return cursor if cursor < total else None

    def collect_dependencies(seeds: Sequence[BlockKey], staged: Set[BlockKey]) -> List[BlockKey]:
        """FindAllDeps: in-cluster transitive deps not yet covered."""
        found: List[BlockKey] = []
        stack = list(seeds)
        while stack:
            key = stack.pop()
            preds = (
                block_graph.all_predecessors(key)
                if include_anti
                else block_graph.producers(key)
            )
            for pred in preds:
                if (
                    pred in staged
                    or pred in assigned
                    or pred in current
                    or pred[0] not in node_set
                ):
                    continue
                staged.add(pred)
                work.blocks_visited += 1
                note_covered(pred)
                found.append(pred)
                stack.append(pred)
        return found

    def covered(key: BlockKey, staged: Set[BlockKey]) -> bool:
        return key in assigned or key in current or key in staged

    frontier = ReadinessFrontier(block_graph, node_set, include_anti, work)
    note_covered = frontier.note_covered
    note_uncovered = frontier.note_uncovered

    def find_ready(seeds: Sequence[BlockKey], staged: Set[BlockKey]) -> List[BlockKey]:
        """FindMoreBlks: blocks whose in-cluster deps are all covered."""
        found: List[BlockKey] = []
        queue = list(seeds)
        is_covered = lambda k: covered(k, staged)  # noqa: E731
        while queue:
            key = queue.pop()
            for consumer in block_graph.consumers(key):
                if consumer[0] not in node_set or covered(consumer, staged):
                    continue
                if frontier.missing_count(consumer, is_covered) == 0:
                    staged.add(consumer)
                    work.blocks_visited += 1
                    note_covered(consumer)
                    found.append(consumer)
                    queue.append(consumer)
        return found

    cluster_label = f"c{min(node_set)}"

    def flush_round() -> bool:
        """Freeze `current` into sub-kernels; True if anything was frozen."""
        nonlocal cost_us, rounds
        if not current:
            return False
        # Ledger entry first (always — the ledger is part of the plan,
        # not of tracing), built before `current` is cleared; the
        # `tile.round` trace instant below derives from it so the two
        # can never disagree.
        footprint = acc.footprint_bytes
        event = {
            "kind": "tile_round",
            "cluster": cluster_label,
            "round": rounds,
            "blocks": len(current),
            "nodes": sum(1 for v in nodes if current_per_node[v]),
            "footprint_bytes": footprint,
            "cache_bytes": cache_bytes,
            "l2_occupancy": round(footprint / cache_bytes, 6),
            "frontier_digest": frontier_digest(current),
        }
        ledger_events.append(event)
        if tracer.enabled:
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
            tracer.metrics.inc("tile.rounds", 1, cluster=cluster_label)
            tracer.metrics.inc("tile.blocks", len(current), cluster=cluster_label)
            tracer.metrics.set_gauge(
                "tile.l2_occupancy", footprint / cache_bytes, cluster=cluster_label
            )
        for v in nodes:
            blocks = current_per_node[v]
            if not blocks:
                continue
            sub = SubKernel(
                node_id=v,
                blocks=tuple(sorted(blocks)),
                label=f"{graph.node(v).name}/r{rounds}",
            )
            subkernels.append(sub)
            cost_us += (
                perf_tables.time(
                    graph.node(v).kernel, combos[v], sub.num_blocks, work=work
                )
                + launch_overhead_us
            )
            blocks.clear()
        assigned.update(current)
        current.clear()
        acc.reset()
        rounds += 1
        return True

    while len(assigned) < total_blocks:
        staged: Set[BlockKey] = set()
        batch: List[BlockKey] = []
        # --- bottom-up round -----------------------------------------
        for v in sinks:
            bid = next_free_block(v, staged)
            if bid is not None:
                key = (v, bid)
                staged.add(key)
                work.blocks_visited += 1
                note_covered(key)
                batch.append(key)
        if not batch:
            # Sinks exhausted; pick up stragglers from inner nodes so the
            # sub-kernels still partition every member kernel's blocks.
            for v in nodes:
                bid = next_free_block(v, staged)
                if bid is not None:
                    key = (v, bid)
                    staged.add(key)
                    work.blocks_visited += 1
                    note_covered(key)
                    batch.append(key)
                    break
        if not batch:
            # Everything is gathered; freeze the final round.
            flush_round()
            break
        batch.extend(collect_dependencies(batch, staged))
        # --- top-down round ------------------------------------------
        batch.extend(find_ready(batch, staged))
        # --- cache constraint (line 13) ------------------------------
        work.footprint_unions += 1
        lines_before = acc.footprint_lines
        if acc.try_add(batch):
            work.footprint_lines += acc.footprint_lines - lines_before
            current.update(batch)
            for v, bid in batch:
                current_per_node[v].append(bid)
            if audit_frontier:
                frontier.validate(lambda k: k in assigned or k in current)
        else:
            if tracer.enabled:
                tracer.instant(
                    "tile.drop",
                    cat="tiler",
                    cluster=cluster_label,
                    round=rounds,
                    blocks=len(batch),
                    footprint_bytes=acc.footprint_bytes,
                    cache_bytes=cache_bytes,
                )
                tracer.metrics.inc("tile.drops", 1, cluster=cluster_label)
                tracer.metrics.inc(
                    "tile.dropped_blocks", len(batch), cluster=cluster_label
                )
            if not flush_round():
                # Not a single new sub-kernel could be formed: untileable.
                return None
            # The failed batch is dropped; its blocks are still
            # unassigned and will be re-gathered next iteration.  Only
            # the dropped blocks became uncovered, so only their nodes'
            # cursors can point past a free block: rewind each to the
            # lowest dropped block instead of rescanning every node
            # from 0 (every block below that is still assigned or
            # current, so the next pick is bit-identical).
            for key in batch:
                note_uncovered(key)
                v, bid = key
                if bid < cursors[v]:
                    cursors[v] = bid
            if audit_frontier:
                frontier.validate(lambda k: k in assigned or k in current)

    if len(assigned) != total_blocks:
        raise TilingError(
            f"cluster tiling lost blocks: {len(assigned)}/{total_blocks}"
        )
    return ClusterTiling(
        nodes=frozenset(node_set),
        subkernels=tuple(subkernels),
        cost_us=cost_us,
        rounds=rounds,
        work=work,
        ledger_events=tuple(ledger_events),
    )
