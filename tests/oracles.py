"""Test oracles: the simple engines the fast ones are proven against.

**The L2 cache.** :class:`SetAssocCache` is the reference implementation
of the simulated L2 — one Python-level ``list.index`` per transaction,
MRU at the end of each set's list.  The simulator itself replays through
the vectorized :class:`repro.gpusim.fast_cache.FastSetAssocCache`; this
module keeps the simple engine alive as the oracle that engine is proven
against.  The differential (``test_cache_differential.py``), property
(``test_cache_properties.py``, ``test_fast_cache_properties.py``) and
audit suites replay the same streams through both and require equal
counters, per-access outcomes and ``clone_state`` snapshots.

:func:`use_oracle_l2` swaps the oracle into :class:`GpuSimulator` for
one test, so whole experiments (the golden figure and schedule suites)
can be replayed through it as well.

The replacement policy is deliberately simple — LRU, allocate on read
and write misses (write-allocate), no sectoring — because the scheduler
in the paper only relies on the first-order property that a working set
larger than the cache thrashes while a smaller one does not.

**Algorithm 2.** :func:`cluster_tile` is the set-based ClusterTile: it
walks ``(node, block)`` keys through Python sets and dicts, with the
:class:`ReadinessFrontier` dict of missing-predecessor counts and the
:class:`FootprintAccumulator` line-set union.  The planner runs the
integer-id, two-pass engine of :mod:`repro.core.cluster_tile`;
``test_cluster_tile_differential.py`` requires identical
``ClusterTiling``s (sub-kernels, cost, rounds, work counters, ledger
events) from both, and :func:`use_oracle_tiler` swaps the oracle into
the planner for one test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analyzer.footprint import BlockMemoryLines
from repro.core.cluster_tile import (
    ClusterTiling,
    cluster_sinks,
    in_cluster_input_combo,
)
from repro.core.perftable import PerfTableSet
from repro.core.subkernel import SubKernel
from repro.core.work import PlannerWork
from repro.errors import ConfigurationError, GraphError, TilingError
from repro.gpusim.cache import CacheStats
from repro.gpusim.trace import BlockKey
from repro.graph.block_graph import BlockDependencyGraph
from repro.graph.kernel_graph import KernelGraph
from repro.obs.decisions import frontier_digest
from repro.obs.tracer import NULL_TRACER


class SetAssocCache:
    """A set-associative cache with LRU replacement over line ids.

    Parameters
    ----------
    num_sets:
        Number of cache sets (power of two recommended but not required).
    assoc:
        Associativity (ways per set).
    line_bytes:
        Line size in bytes; only used for capacity/footprint reporting.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        line_bytes: int = 128,
        hash_sets: bool = True,
    ):
        if num_sets <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigurationError("cache geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hash_sets = hash_sets
        # XOR-fold the bits above the index into the index, as real GPU
        # L2s do, so power-of-two strides (matrix columns, row starts)
        # do not all alias into a handful of sets.  The fold width is
        # the index width, precomputed for the hot path.
        self._fold_shift = max(1, num_sets.bit_length() - 1)
        self.stats = CacheStats()
        # Optional passive observer (repro.obs.audit.MissAttributor).
        # Must stay None on measurement paths: with an attributor
        # attached, access_stream drops to a per-access loop.
        self.attribution = None
        # Each set is a list of line ids, LRU at index 0, MRU at the end.
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]

    def set_index(self, line: int) -> int:
        """Cache set of a line id (hashed unless hash_sets=False)."""
        if self.hash_sets:
            shift = self._fold_shift
            line = line ^ (line >> shift) ^ (line >> (2 * shift))
        return line % self.num_sets

    def attach_attribution(self, attributor) -> None:
        """Attach (or detach, with None) a passive per-access observer.

        The observer sees every statistics-recorded access in stream
        order (``touch_many`` warming excluded) and never mutates cache
        state, so hit/miss outcomes and counters are unchanged.
        """
        self.attribution = attributor

    @classmethod
    def from_spec(cls, spec) -> "SetAssocCache":
        """Build the L2 described by a :class:`repro.gpusim.arch.GpuSpec`."""
        return cls(spec.l2_num_sets, spec.l2_assoc, spec.l2_line_bytes)

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_bytes

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def access(self, line: int, is_write: bool = False) -> bool:
        """Access one line; returns True on hit.

        Misses allocate the line (write-allocate policy) and evict the
        LRU way when the set is full.
        """
        cset = self._sets[self.set_index(line)]
        stats = self.stats
        if is_write:
            stats.writes += 1
        try:
            idx = cset.index(line)
        except ValueError:
            stats.misses += 1
            cset.append(line)
            if len(cset) > self.assoc:
                cset.pop(0)
                stats.evictions += 1
            if self.attribution is not None:
                self.attribution.observe(line, is_write, False)
            return False
        stats.hits += 1
        if idx != len(cset) - 1:
            cset.pop(idx)
            cset.append(line)
        if self.attribution is not None:
            self.attribution.observe(line, is_write, True)
        return True

    def access_stream(self, stream: Sequence[Tuple[int, bool]]) -> Tuple[int, int]:
        """Replay a stream of ``(line, is_write)`` pairs.

        Returns ``(hits, misses)`` for this stream only (global stats are
        also updated).  Inlined version of :meth:`access` for speed.
        """
        if self.attribution is not None:
            # Attribution path: per-access, so the observer sees every
            # outcome in stream order.  The inlined loop below is the
            # measurement path and must stay untouched.
            access = self.access
            hits = 0
            misses = 0
            for line, is_write in stream:
                if access(line, is_write):
                    hits += 1
                else:
                    misses += 1
            return hits, misses
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        hashed = self.hash_sets
        shift = self._fold_shift
        shift2 = 2 * shift
        hits = 0
        misses = 0
        writes = 0
        evictions = 0
        for line, is_write in stream:
            if hashed:
                cset = sets[(line ^ (line >> shift) ^ (line >> shift2)) % num_sets]
            else:
                cset = sets[line % num_sets]
            if is_write:
                writes += 1
            try:
                idx = cset.index(line)
            except ValueError:
                misses += 1
                cset.append(line)
                if len(cset) > assoc:
                    cset.pop(0)
                    evictions += 1
            else:
                hits += 1
                if idx != len(cset) - 1:
                    cset.pop(idx)
                    cset.append(line)
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.writes += writes
        stats.evictions += evictions
        return hits, misses

    def contains(self, line: int) -> bool:
        """True if the line is currently cached (does not touch LRU state)."""
        return line in self._sets[self.set_index(line)]

    def touch_many(self, lines: Iterable[int]) -> None:
        """Install lines without recording statistics (cache warming)."""
        sets = self._sets
        assoc = self.assoc
        set_index = self.set_index
        for line in lines:
            cset = sets[set_index(line)]
            try:
                idx = cset.index(line)
            except ValueError:
                cset.append(line)
                if len(cset) > assoc:
                    cset.pop(0)
            else:
                if idx != len(cset) - 1:
                    cset.pop(idx)
                    cset.append(line)

    def resident_lines(self) -> List[int]:
        """All currently cached line ids (unordered across sets)."""
        out: List[int] = []
        for cset in self._sets:
            out.extend(cset)
        return out

    def flush(self) -> None:
        """Invalidate the whole cache (statistics are preserved)."""
        for cset in self._sets:
            cset.clear()
        if self.attribution is not None:
            self.attribution.on_flush()

    def clone_state(self) -> List[List[int]]:
        """Snapshot of the set contents (for save/restore in profiling)."""
        return [list(s) for s in self._sets]

    def restore_state(self, state: List[List[int]]) -> None:
        if len(state) != self.num_sets:
            raise ConfigurationError("state does not match cache geometry")
        self._sets = [list(s) for s in state]

    def __repr__(self) -> str:
        return (
            f"SetAssocCache(sets={self.num_sets}, assoc={self.assoc}, "
            f"line={self.line_bytes}B, resident={len(self)}/{self.capacity_lines})"
        )


class OracleL2(SetAssocCache):
    """The oracle behind the simulator's batched ``replay_arrays`` call.

    Each access goes through :meth:`SetAssocCache.access` in array
    order, so the hit mask and counters are the oracle's own.
    """

    def replay_arrays(
        self, lines: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        access = self.access
        if writes is None:
            outcomes = [access(line) for line in lines.tolist()]
        else:
            outcomes = [
                access(line, is_write)
                for line, is_write in zip(lines.tolist(), writes.tolist())
            ]
        return np.array(outcomes, dtype=bool)


def use_oracle_l2(monkeypatch) -> None:
    """Make every :class:`GpuSimulator` built in this test use the oracle L2."""
    monkeypatch.setattr("repro.gpusim.executor.FastSetAssocCache", OracleL2)


class FootprintAccumulator:
    """Incremental footprint with a byte budget (the cache size).

    Supports the ClusterTile loop's pattern: repeatedly *try* to extend
    the current round with a batch of blocks; a failed try leaves the
    accumulated state untouched.
    """

    def __init__(self, table: BlockMemoryLines, budget_bytes: int):
        if budget_bytes <= 0:
            raise GraphError("footprint budget must be positive")
        self.table = table
        self.budget_lines = budget_bytes // table.line_bytes
        self._lines: set = set()

    @property
    def footprint_lines(self) -> int:
        return len(self._lines)

    @property
    def footprint_bytes(self) -> int:
        return len(self._lines) * self.table.line_bytes

    def try_add(self, keys: Iterable[BlockKey]) -> bool:
        """Add blocks if the union still fits the budget.

        Returns False — with no state change — when the batch would
        overflow the cache budget.
        """
        current = self._lines
        lines_of = self.table.lines_of
        new_lines = set().union(*map(lines_of, keys))
        new_lines -= current
        if len(current) + len(new_lines) > self.budget_lines:
            return False
        current |= new_lines
        return True

    def would_fit(self, keys: Iterable[BlockKey]) -> bool:
        """Non-mutating version of :meth:`try_add`."""
        new_count = 0
        current = self._lines
        seen: set = set()
        for key in keys:
            for line in self.table.lines_of(key):
                if line not in current and line not in seen:
                    seen.add(line)
                    new_count += 1
        return len(current) + new_count <= self.budget_lines

    def reset(self) -> None:
        """Start a new tiling round."""
        self._lines.clear()


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


class _OracleStructure:
    """Stands in for a cluster structure: the arguments of the pass."""

    def __init__(
        self, cluster_nodes, graph, block_graph, mem_lines, cache_bytes,
        include_anti=True, audit_frontier=False,
    ):
        self.args = (frozenset(cluster_nodes), graph, block_graph, mem_lines)
        self.cache_bytes = cache_bytes
        self.include_anti = include_anti


def _oracle_cost(structure, perf_tables, launch_overhead_us=0.0, tracer=NULL_TRACER):
    nodes, graph, block_graph, mem_lines = structure.args
    return cluster_tile(
        nodes, graph, block_graph, mem_lines, perf_tables,
        structure.cache_bytes,
        launch_overhead_us=launch_overhead_us,
        include_anti=structure.include_anti,
        tracer=tracer,
    )


def use_oracle_tiler(monkeypatch) -> None:
    """Make the planner tile every cluster with the set-based oracle.

    The structure pass only records its arguments and the cost pass runs
    the whole oracle, so every evaluation tiles from scratch, including
    one whose node set the ``KTiler`` memo already holds.  The recorded
    arguments are no storable structure: use it on a store-less
    ``KTiler``.
    """
    import repro.core.app_tile as app_tile
    import repro.core.ktiler as ktiler

    monkeypatch.setattr(ktiler, "tile_structure", _OracleStructure)
    monkeypatch.setattr(app_tile, "cost_structure", _oracle_cost)
