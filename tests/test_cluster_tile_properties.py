"""Property-based tests for Algorithm 2 (ClusterTile).

For randomized workload geometries and cache budgets, any tiling the
heuristic produces must satisfy the §III/§IV-C2 invariants:

* the sub-kernels partition every member kernel's blocks;
* the sequence respects every block dependency (RAW and anti);
* every tiling round's memory footprint fits the cache budget;
* the cost equals the sum of the table lookups plus launch overheads.

And when the heuristic declares a cluster untileable (None), there
must be a genuine obstruction: some leaf block's in-cluster dependency
cone alone must overflow the budget.

The readiness-frontier tests cover the incremental ``missing`` counts
behind FindMoreBlks: any cover/uncover script must leave the
incremental counts equal to a from-scratch recomputation, including
through the dropped-batch path (small budgets force drops, and
``audit_frontier=True`` cross-checks after every commit *and* drop).
The dropped-batch cursor regression pins full tiling outcomes — the
cursor rewind is scoped to dropped blocks and must stay bit-identical
to the full from-zero rescan it replaced.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import BlockMemoryLines, build_block_graph, run_instrumented
from repro.apps import build_jacobi_pingpong, build_scale_chain
from repro.core.subkernel import check_partition
from repro.core.work import PlannerWork
from repro.gpusim import GpuSpec
from tests.oracles import ReadinessFrontier, cluster_tile


class FlatTables:
    """A trivial cost model: 1 us per block (keeps properties fast)."""

    def time(self, kernel, combo, grid_size, work=None):
        if work is not None:
            work.perftable_queries += 1
        return float(grid_size)


_setups = {}


def setup(kind, size):
    key = (kind, size)
    if key not in _setups:
        if kind == "chain":
            app = build_scale_chain(length=4, size=size)
        else:
            app = build_jacobi_pingpong(iters=3, size=size)
        spec = GpuSpec()
        run = run_instrumented(app.graph)
        bdg = build_block_graph(run.trace)
        lines = BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )
        _setups[key] = (app, spec, bdg, lines)
    return _setups[key]


workloads = st.tuples(
    st.sampled_from(["chain", "jacobi"]),
    st.sampled_from([64, 128]),
    st.integers(3, 11),  # cache budget as log2(KiB): 8 KiB .. 2 MiB
)


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_tiling_invariants(workload):
    kind, size, budget_log2 = workload
    app, spec, bdg, lines = setup(kind, size)
    graph = app.graph
    # Tile the tileable tail of the graph (skip the memset sources so
    # clusters of different shapes arise).
    nodes = {n.node_id for n in graph if not n.kernel.name.startswith("memset")}
    cache_bytes = (1 << budget_log2) * 1024
    tiling = cluster_tile(
        nodes, graph, bdg, lines, FlatTables(), cache_bytes,
        launch_overhead_us=0.5,
    )
    if tiling is None:
        # Obstruction check: some single block's in-cluster cone must
        # already overflow the budget.
        overflow = False
        for node_id in nodes:
            for bid in graph.node(node_id).kernel.all_block_ids():
                cone = bdg.transitive_producers([(node_id, bid)], within_nodes=nodes)
                cone.add((node_id, bid))
                if lines.footprint_bytes(cone) > cache_bytes:
                    overflow = True
                    break
            if overflow:
                break
        assert overflow, "untileable verdict without an oversized cone"
        return

    # Partition invariant.
    check_partition(
        tiling.subkernels,
        {n: graph.node(n).num_blocks for n in nodes},
    )
    # Dependency invariant.
    done = set()
    for sub in tiling.subkernels:
        for key in sub.keys():
            for pred in bdg.all_predecessors(key):
                if pred[0] in nodes:
                    assert pred in done
        done.update(sub.keys())
    # Footprint invariant, per round.
    rounds = {}
    for sub in tiling.subkernels:
        rounds.setdefault(sub.label.rsplit("/r", 1)[-1], []).extend(sub.keys())
    for keys in rounds.values():
        assert lines.footprint_bytes(keys) <= cache_bytes
    # Cost accounting: blocks * 1us + overhead per launch.
    expected = sum(s.num_blocks for s in tiling.subkernels) + 0.5 * len(
        tiling.subkernels
    )
    assert tiling.cost_us == pytest.approx(expected)


@given(st.sampled_from([64, 128]), st.integers(6, 11))
@settings(max_examples=20, deadline=None)
def test_smaller_cache_never_fewer_launches(size, budget_log2):
    """Shrinking the cache can only split the cluster into more rounds."""
    app, spec, bdg, lines = setup("jacobi", size)
    graph = app.graph
    nodes = {n.node_id for n in graph if not n.kernel.name.startswith("memset")}
    big = cluster_tile(
        nodes, graph, bdg, lines, FlatTables(), (1 << budget_log2) * 1024 * 2
    )
    small = cluster_tile(
        nodes, graph, bdg, lines, FlatTables(), (1 << budget_log2) * 1024
    )
    if big is None or small is None:
        return  # untileable at one of the sizes: nothing to compare
    assert small.num_launches >= big.num_launches


# ----------------------------------------------------------------------
# Readiness frontier: incremental counts == from-scratch recomputation
# ----------------------------------------------------------------------
def _tileable_nodes(app):
    return {
        n.node_id
        for n in app.graph
        if not n.kernel.name.startswith("memset")
    }


def _tiling_fingerprint(tiling):
    """Everything observable about one tiling, hashable for comparison."""
    return (
        tiling.rounds,
        tiling.cost_us,
        tuple((s.label, s.node_id, s.blocks) for s in tiling.subkernels),
        tiling.work.as_dict(),
    )


@given(workloads)
@settings(max_examples=25, deadline=None)
def test_frontier_audit_does_not_perturb_and_never_drifts(workload):
    """audit_frontier=True validates after every commit and drop — any
    incremental-count drift raises — and must not change the result or
    the work counters (the oracle charges nothing)."""
    kind, size, budget_log2 = workload
    app, spec, bdg, lines = setup(kind, size)
    nodes = _tileable_nodes(app)
    cache_bytes = (1 << budget_log2) * 1024
    plain = cluster_tile(
        nodes, app.graph, bdg, lines, FlatTables(), cache_bytes,
        launch_overhead_us=0.5,
    )
    audited = cluster_tile(
        nodes, app.graph, bdg, lines, FlatTables(), cache_bytes,
        launch_overhead_us=0.5, audit_frontier=True,
    )
    if plain is None:
        assert audited is None
    else:
        assert _tiling_fingerprint(plain) == _tiling_fingerprint(audited)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_frontier_incremental_matches_recompute(data):
    """Random cover/uncover scripts over real block graphs: the lazily
    initialized, incrementally adjusted counts must equal the oracle."""
    kind = data.draw(st.sampled_from(["chain", "jacobi"]))
    app, spec, bdg, lines = setup(kind, 64)
    nodes = _tileable_nodes(app)
    keys = sorted(
        (v, b)
        for v in nodes
        for b in range(app.graph.node(v).num_blocks)
    )
    include_anti = data.draw(st.booleans())
    work = PlannerWork()
    frontier = ReadinessFrontier(bdg, nodes, include_anti, work)
    covered = set()
    is_covered = lambda k: k in covered  # noqa: E731
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        key = data.draw(st.sampled_from(keys))
        if key in covered:
            covered.discard(key)
            frontier.note_uncovered(key)
        else:
            covered.add(key)
            frontier.note_covered(key)
        probe = data.draw(st.sampled_from(keys))
        count = frontier.missing_count(probe, is_covered)
        assert count >= 0
        frontier.validate(is_covered)
    # The oracle charged nothing beyond the tracked inits/adjustments.
    assert frontier.recompute(is_covered) is not None
    before = work.frontier_updates
    frontier.validate(is_covered)
    assert work.frontier_updates == before


def test_frontier_missing_count_is_lazy_and_charged():
    app, spec, bdg, lines = setup("jacobi", 64)
    nodes = _tileable_nodes(app)
    work = PlannerWork()
    frontier = ReadinessFrontier(bdg, nodes, True, work)
    key = (min(nodes), 0)
    consumers = bdg.consumers(key)
    in_cluster = [c for c in consumers if c[0] in nodes]
    assert in_cluster, "jacobi block 0 must have in-cluster consumers"
    probe = in_cluster[0]
    first = frontier.missing_count(probe, lambda k: False)
    assert work.frontier_updates == 1  # lazy init charged once
    again = frontier.missing_count(probe, lambda k: True)
    assert again == first  # cached: predicate ignored after init
    assert work.frontier_updates == 1


# ----------------------------------------------------------------------
# Dropped-batch cursor rewind: pinned bit-identical outcomes
# ----------------------------------------------------------------------
def _tiling_digest(tiling) -> str:
    h = hashlib.sha256()
    for sub in tiling.subkernels:
        h.update(repr((sub.label, sub.node_id, sub.blocks)).encode())
    return h.hexdigest()[:12]


#: (kind, size, budget KiB) -> (rounds, launches, blocks_visited,
#: frontier_updates, footprint_unions, schedule digest).  Captured from
#: the from-zero cursor-rescan implementation and verified bit-identical
#: against the scoped rewind; the small-budget chain rows force many
#: dropped batches, so any rewind bug shifts these immediately.
_PINNED_TILINGS = {
    ("jacobi", 64, 64): (3, 9, 60, 215, 8, "f05f96d86d57"),
    ("jacobi", 64, 128): (1, 3, 48, 111, 6, "0600668e8a57"),
    ("chain", 64, 8): (16, 64, 124, 0, 31, "7eaf3376b219"),
    ("chain", 64, 16): (6, 24, 84, 0, 21, "e2f78bce263a"),
    ("chain", 64, 32): (3, 12, 72, 0, 18, "7a815801e5e1"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_TILINGS))
def test_dropped_batch_cursor_rewind_pinned(case):
    kind, size, budget_kib = case
    app, spec, bdg, lines = setup(kind, size)
    nodes = _tileable_nodes(app)
    tiling = cluster_tile(
        nodes, app.graph, bdg, lines, FlatTables(), budget_kib * 1024,
        launch_overhead_us=0.5, audit_frontier=True,
    )
    assert tiling is not None
    expected = _PINNED_TILINGS[case]
    actual = (
        tiling.rounds,
        tiling.num_launches,
        tiling.work.blocks_visited,
        tiling.work.frontier_updates,
        tiling.work.footprint_unions,
        _tiling_digest(tiling),
    )
    assert actual == expected


def test_small_budgets_actually_exercise_drops():
    """Guard the regression table's premise: the chain cases at small
    budgets must reject batches (footprint_unions > rounds means the
    cache constraint failed at least once)."""
    app, spec, bdg, lines = setup("chain", 64)
    nodes = _tileable_nodes(app)
    tiling = cluster_tile(
        nodes, app.graph, bdg, lines, FlatTables(), 8 * 1024,
        launch_overhead_us=0.5,
    )
    assert tiling is not None
    assert tiling.work.footprint_unions > tiling.rounds
