"""Differential and contract tests for the Algorithm 2 engine.

The planner tiles clusters with :mod:`repro.core.cluster_tile`: an
integer-id structure pass that a :class:`KTiler` keeps per node set,
plus a per-operating-point cost pass.  The set-based ClusterTile in
``tests/oracles.py`` is the reference.  These tests require:

* identical ``ClusterTiling``s (sub-kernels, cost, rounds, work
  counters, ledger events — or ``None`` for both) on every distinct
  cluster of a cold Figure 5 plan, and under Hypothesis over probe
  graphs, the jacobi and scale-chain apps, both dependency variants
  and budgets small enough to drop batches and to leave clusters
  untileable;
* that one ``KTiler`` planning all four Figure 5 points — re-costing
  the structures it kept — gives each point exactly what a fresh
  ``KTiler`` gives: schedule, estimated cost, stats and ledger;
* that a traced plan emits the same ``tile.*``, ``sched.*``,
  ``planner.*`` and ``decisions.*`` metrics and events as with the
  oracle swapped in;
* that the default replay taken from the instrumented run equals a
  real replay of the default schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.app_tile as app_tile
import repro.core.ktiler as ktiler_module
from repro.analyzer import BlockMemoryLines, build_block_graph, run_instrumented
from repro.apps import (
    build_hsopticalflow,
    build_jacobi_pingpong,
    build_probe_graph,
    build_scale_chain,
)
from repro.core.cluster_tile import cluster_tile
from repro.core.ktiler import KTiler, KTilerConfig
from repro.core.schedule import Schedule
from repro.experiments.presets import (
    SCALED_FRAME_SIZE,
    SCALED_JACOBI_ITERS,
    SCALED_LEVELS,
    SCALED_SPEC,
)
from repro.gpusim import GpuSpec
from repro.gpusim.arch import spec_with_l2
from repro.gpusim.freq import FIG5_CONFIGS, NOMINAL
from repro.obs.tracer import Tracer
from repro.runtime.launcher import tally_schedule
from repro.runtime.report import compare_default_vs_ktiler, default_tallies
from repro.serve.wire import build_preset_app
from repro.store import ArtifactStore
from repro.store.artifacts import replay_key
from tests import oracles


class FlatTables:
    """A trivial cost model: 1 us per block (keeps properties fast)."""

    def time(self, kernel, combo, grid_size, work=None):
        if work is not None:
            work.perftable_queries += 1
        return float(grid_size)


def _fig5_ktiler(frame_size, levels, jacobi_iters, tracer=None, spec=SCALED_SPEC):
    app = build_hsopticalflow(
        frame_size=frame_size, levels=levels, jacobi_iters=jacobi_iters
    )
    return KTiler(
        app.graph,
        spec=spec,
        config=KTilerConfig(launch_overhead_us=spec.launch_gap_us),
        tracer=tracer,
        planner_backend="fast",
    )


# ----------------------------------------------------------------------
# Every distinct cluster of a cold Figure 5 plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig5_clusters():
    """Plan the four Figure 5 points on one KTiler, recording the first
    pricing of every distinct node set (its tables and launch overhead)."""
    ktiler = _fig5_ktiler(SCALED_FRAME_SIZE, SCALED_LEVELS, SCALED_JACOBI_ITERS)
    priced = {}
    evaluations = []
    cost_structure = app_tile.cost_structure

    def recording(structure, perf_tables, launch_overhead_us, tracer):
        evaluations.append(structure.nodes)
        priced.setdefault(structure.nodes, (perf_tables, launch_overhead_us))
        return cost_structure(structure, perf_tables, launch_overhead_us, tracer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(app_tile, "cost_structure", recording)
        for freq in FIG5_CONFIGS:
            ktiler.plan(freq)
    return ktiler, priced, evaluations


@pytest.mark.slow
def test_engine_matches_oracle_on_every_fig5_cluster(fig5_clusters):
    ktiler, priced, evaluations = fig5_clusters
    # The run re-evaluates node sets across points: the structures are
    # what the KTiler kept, one per distinct node set.
    assert len(evaluations) > len(priced) > 100
    assert set(ktiler._structures) == set(priced)
    outcomes = []
    for nodes, (tables, overhead) in priced.items():
        args = (
            nodes, ktiler.graph, ktiler.block_graph, ktiler.mem_lines, tables,
            ktiler.spec.l2_bytes,
        )
        engine = cluster_tile(*args, launch_overhead_us=overhead)
        oracle = oracles.cluster_tile(*args, launch_overhead_us=overhead)
        assert engine == oracle, sorted(nodes)
        outcomes.append(engine)
    assert any(tiling is None for tiling in outcomes)
    assert any(tiling is not None and tiling.rounds > 1 for tiling in outcomes)


@pytest.mark.slow
def test_default_replay_from_the_instrumented_run_on_fig5(fig5_clusters):
    ktiler, _, _ = fig5_clusters
    replayed = tally_schedule(Schedule.default(ktiler.graph), ktiler.graph, ktiler.spec)
    assert default_tallies(ktiler) == replayed


# ----------------------------------------------------------------------
# Hypothesis: probe graphs and small apps, both variants, small budgets
# ----------------------------------------------------------------------
_setups = {}


def _setup(kind):
    if kind not in _setups:
        if kind in ("chain", "fan", "grid"):
            app = build_probe_graph(kind, kernels=6, size=64)
        elif kind == "jacobi":
            app = build_jacobi_pingpong(iters=3, size=64)
        else:
            app = build_scale_chain(length=4, size=64)
        spec = GpuSpec()
        run = run_instrumented(app.graph)
        lines = BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )
        _setups[kind] = (app.graph, build_block_graph(run.trace), lines)
    return _setups[kind]


KINDS = ("chain", "fan", "grid", "jacobi", "scale-chain")


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(KINDS))
    graph, block_graph, lines = _setup(kind)
    node_ids = [node.node_id for node in graph]
    nodes = draw(
        st.sets(st.sampled_from(node_ids), min_size=1, max_size=len(node_ids))
    )
    include_anti = draw(st.booleans())
    cache_bytes = draw(st.integers(1, 96)) * 1024
    return kind, frozenset(nodes), include_anti, cache_bytes


@given(cases())
@settings(max_examples=150, deadline=None)
def test_engine_matches_oracle_under_hypothesis(case):
    kind, nodes, include_anti, cache_bytes = case
    graph, block_graph, lines = _setup(kind)
    args = (nodes, graph, block_graph, lines, FlatTables(), cache_bytes)
    oracle = oracles.cluster_tile(
        *args, launch_overhead_us=0.5, include_anti=include_anti
    )
    engine = cluster_tile(*args, launch_overhead_us=0.5, include_anti=include_anti)
    assert engine == oracle
    # The audit recounts the frontier after every commit and drop, and
    # must neither raise nor change anything.
    audited = cluster_tile(
        *args, launch_overhead_us=0.5, include_anti=include_anti,
        audit_frontier=True,
    )
    assert audited == oracle


@pytest.mark.parametrize("kind", KINDS)
def test_budget_sweep_drops_and_leaves_clusters_untileable(kind):
    """Guard the Hypothesis premise: across the drawn budgets each graph
    meets dropped batches and untileable clusters, and the engine
    agrees with the oracle on every one of this sweep's clusters."""
    graph, block_graph, lines = _setup(kind)
    nodes = frozenset(node.node_id for node in graph)
    verdicts = []
    for kib in (1, 2, 4, 8, 16, 32, 64, 96):
        args = (nodes, graph, block_graph, lines, FlatTables(), kib * 1024)
        engine = cluster_tile(*args, launch_overhead_us=0.5)
        assert engine == oracles.cluster_tile(*args, launch_overhead_us=0.5)
        verdicts.append(engine)
    assert None in verdicts
    assert any(
        tiling is not None and tiling.work.footprint_unions > tiling.rounds
        for tiling in verdicts
    ), "no budget dropped a batch"


# ----------------------------------------------------------------------
# Structures kept across operating points
# ----------------------------------------------------------------------
def _plan_view(result):
    return (
        [(s.node_id, s.blocks, s.label) for s in result.schedule],
        result.estimated_cost_us,
        result.stats,
        result.ledger.digest(),
    )


def test_one_ktiler_for_four_points_equals_a_fresh_ktiler_per_point():
    shared = _fig5_ktiler(96, 2, 3)
    structure_passes = []
    tile_structure = ktiler_module.tile_structure

    def counting(*args, **kwargs):
        structure_passes.append(frozenset(args[0]))
        return tile_structure(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ktiler_module, "tile_structure", counting)
        shared_plans = [shared.plan(freq) for freq in FIG5_CONFIGS]
    evaluations = sum(plan.stats.tilings_evaluated for plan in shared_plans)
    # Later points re-cost structures the first ones built.
    assert len(structure_passes) == len(set(structure_passes)) < evaluations
    for freq, plan in zip(FIG5_CONFIGS, shared_plans):
        fresh = _fig5_ktiler(96, 2, 3).plan(freq)
        assert _plan_view(plan) == _plan_view(fresh), freq.label
        assert plan.ledger.entries == fresh.ledger.entries


# ----------------------------------------------------------------------
# Traced plans: same metrics and events as the oracle
# ----------------------------------------------------------------------
_TRACED_FAMILIES = ("tile.", "sched.", "planner.", "decisions.")


def _traced_plan(points):
    tracer = Tracer()
    # A 64 KiB L2 makes the tiler drop batches, so tile.drop is covered.
    spec = spec_with_l2(SCALED_SPEC, 64 * 1024)
    ktiler = _fig5_ktiler(96, 2, 3, tracer=tracer, spec=spec)
    for freq in points:
        ktiler.plan(freq)
    metrics = {
        name: entry
        for name, entry in tracer.metrics.as_dict().items()
        if name.startswith(_TRACED_FAMILIES)
    }
    events = [
        (event["name"], event["ph"], event.get("args"))
        for event in list(tracer.events) + list(tracer.sim_events)
        if event["name"].startswith(_TRACED_FAMILIES)
        and event["ph"] in ("i", "C")
    ]
    return metrics, events


def test_traced_two_point_plan_matches_the_oracle(monkeypatch):
    points = FIG5_CONFIGS[:2]
    engine_metrics, engine_events = _traced_plan(points)
    oracles.use_oracle_tiler(monkeypatch)
    oracle_metrics, oracle_events = _traced_plan(points)
    assert {e[0] for e in engine_events} >= {"tile.round", "tile.drop", "sched.merge"}
    assert any(name.startswith("tile.") for name in engine_metrics)
    assert engine_metrics == oracle_metrics
    assert engine_events == oracle_events


# ----------------------------------------------------------------------
# Default replay from the instrumented run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["pipeline", "jacobi"])
def test_default_replay_from_the_instrumented_run(preset, tmp_path):
    app = build_preset_app(preset, size=128)
    replayed = tally_schedule(Schedule.default(app.graph), app.graph, SCALED_SPEC)
    cold = KTiler(app.graph, spec=SCALED_SPEC, store=ArtifactStore(str(tmp_path)))
    assert default_tallies(cold) == replayed
    # A warm store restores the instrumented run from its trace entry,
    # and the tallies survive the round trip.
    warm = KTiler(app.graph, spec=SCALED_SPEC, store=ArtifactStore(str(tmp_path)))
    assert default_tallies(warm) == replayed


def test_the_store_keeps_no_default_replay(tmp_path):
    """The comparison replays, and stores, only the tiled schedules."""
    app = build_preset_app("pipeline", size=256)
    store = ArtifactStore(str(tmp_path))
    ktiler = KTiler(app.graph, spec=SCALED_SPEC, store=store)
    compare_default_vs_ktiler(ktiler, [NOMINAL])
    assert ktiler.plan(NOMINAL).stats.adopted_merges > 0
    default_key = store.key_for(
        replay_key(app.graph, SCALED_SPEC, Schedule.default(app.graph))
    )
    assert store.get("replay", default_key) is None
    assert len(list((tmp_path / "replay").rglob("*.json"))) == 1
