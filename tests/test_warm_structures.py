"""Warm-structure identity: a new DVFS point planned from a warm store.

The artifact store keeps, besides plans, the Algorithm 2 structure of
every node set a plan evaluated (kind ``structure``).  A fresh
:class:`KTiler` planning an operating point the store holds no plan
for must then do only the work that depends on the operating point.
These tests require:

* a structure restored from the store equals (``==``) the computed one,
  including dropped batches, multi-round and untileable clusters;
* the plan of a new point equals a cold ``KTiler``'s: schedule,
  estimated cost, ``TilingStats`` with every work counter, ledger, and
  the traced ``tile.*``, ``sched.*``, ``planner.*`` and ``decisions.*``
  metrics and events;
* the warm plan runs no ``tile_structure``, builds no
  ``BlockMemoryLines`` and no ``AccessRange``, and misses no kernel
  line-set memo;
* a corrupted ``structure`` entry, or one whose node set names an id
  the graph does not have, costs only its own recompute.
"""

from __future__ import annotations

import json
import shutil
import warnings

import pytest

import repro.core.ktiler as ktiler_module
from repro.analyzer import BlockMemoryLines, build_block_graph, run_instrumented
from repro.apps import build_hsopticalflow, build_jacobi_pingpong
from repro.core.cluster_tile import DroppedBatch, tile_structure
from repro.core.ktiler import KTiler, KTilerConfig
from repro.experiments.presets import SCALED_SPEC
from repro.gpusim import GpuSpec
from repro.gpusim.access import AccessRange
from repro.gpusim.arch import spec_with_l2
from repro.gpusim.freq import FIG5_CONFIGS, FrequencyConfig
from repro.obs.tracer import Tracer
from repro.store import ArtifactStore
from repro.store.artifacts import (
    structure_from_dict,
    structure_key,
    structure_scope,
    structure_to_dict,
)

#: A 64 KiB L2 makes the tiler drop batches and freeze several rounds.
SPEC = spec_with_l2(SCALED_SPEC, 64 * 1024)
SCALE = dict(frame_size=96, levels=2, jacobi_iters=3)

#: The Figure 5 points and two points of the bench's DVFS ladder.  At
#: this scale every one of them evaluates only node sets the four
#: Figure 5 plans already tiled.
POINTS = tuple(FIG5_CONFIGS) + (
    FrequencyConfig(1324.0, 810.0),
    FrequencyConfig(666.0, 1000.0),
)

_TRACED_FAMILIES = ("tile.", "sched.", "planner.", "decisions.")


def _ktiler(store=None, tracer=None, graph=None):
    if graph is None:
        graph = build_hsopticalflow(**SCALE).graph
    return KTiler(
        graph,
        spec=SPEC,
        config=KTilerConfig(launch_overhead_us=SPEC.launch_gap_us),
        tracer=tracer,
        store=store,
        planner_backend="fast",
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A store the four Figure 5 plans filled, with the plans removed,
    so every point is new to it; and the KTiler that filled it."""
    root = tmp_path_factory.mktemp("warm-structures")
    fill = _ktiler(store=ArtifactStore(root))
    for freq in FIG5_CONFIGS:
        fill.plan(freq)
    shutil.rmtree(root / "plan")
    return root, fill


def _copy(root, tmp_path):
    target = tmp_path / "store"
    shutil.copytree(root, target)
    return target


def _view(result):
    return (
        [(s.node_id, s.blocks, s.label) for s in result.schedule],
        result.estimated_cost_us,
        result.stats,
        result.ledger.digest(),
    )


def _traced(tracer):
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


def _count_frequency_independent_work(monkeypatch):
    """Count Algorithm 2 structure passes, memory-line tables and
    access ranges built from here on."""
    counts = {"tile_structure": [], "mem_lines": 0, "access_ranges": 0}

    def counting_tile_structure(nodes, *args, **kwargs):
        counts["tile_structure"].append(frozenset(nodes))
        return tile_structure(nodes, *args, **kwargs)

    lines_init = BlockMemoryLines.__init__

    def counting_lines_init(self, *args, **kwargs):
        counts["mem_lines"] += 1
        lines_init(self, *args, **kwargs)

    range_post_init = AccessRange.__post_init__

    def counting_range_post_init(self):
        counts["access_ranges"] += 1
        range_post_init(self)

    monkeypatch.setattr(ktiler_module, "tile_structure", counting_tile_structure)
    monkeypatch.setattr(BlockMemoryLines, "__init__", counting_lines_init)
    monkeypatch.setattr(AccessRange, "__post_init__", counting_range_post_init)
    return counts


def _memoized_line_sets(graph):
    """Entries in the kernels' per-block line-set memos; a miss adds one."""
    kernels = {id(node.kernel): node.kernel for node in graph}.values()
    return sum(len(k._sets_cache) + len(k._touched_cache) for k in kernels)


# ----------------------------------------------------------------------
# Restored structures
# ----------------------------------------------------------------------
def test_restored_structures_equal_the_computed_ones(warm):
    root, fill = warm
    computed = fill._structures
    steps = [structure.steps for structure in computed.values()]
    assert any(isinstance(s, DroppedBatch) for run in steps for s in run)
    assert any(sum(not isinstance(s, DroppedBatch) for s in run) > 1 for run in steps)
    # A fresh KTiler on the same graph restores every one from the store.
    restoring = _ktiler(store=ArtifactStore(root), graph=fill.graph)
    for nodes, structure in computed.items():
        assert restoring.structure(nodes) == structure, sorted(nodes)
    assert restoring.store.hits == len(computed)
    assert restoring.store.misses == 0


@pytest.mark.parametrize("include_anti", [True, False])
def test_structure_codec_round_trips_untileable_and_dropping_clusters(include_anti):
    app = build_jacobi_pingpong(iters=3, size=64)
    spec = GpuSpec()
    run = run_instrumented(app.graph)
    block_graph = build_block_graph(run.trace, include_anti=include_anti)
    lines = BlockMemoryLines.from_trace(
        run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
    )
    nodes = frozenset(node.node_id for node in app.graph)
    structures = [
        tile_structure(
            nodes, app.graph, block_graph, lines, kib * 1024,
            include_anti=include_anti,
        )
        for kib in (1, 2, 4, 8, 16, 32, 64, 96)
    ]
    assert any(not s.tileable for s in structures)
    assert any(isinstance(step, DroppedBatch) for s in structures for step in s.steps)
    for structure in structures:
        payload = json.loads(json.dumps(structure_to_dict(structure)))
        assert structure_from_dict(payload, app.graph) == structure


# ----------------------------------------------------------------------
# A new point from the warm store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("freq", POINTS, ids=lambda f: f.label)
def test_new_point_from_warm_structures_equals_a_cold_plan(
    freq, warm, tmp_path, monkeypatch
):
    cold_tracer = Tracer()
    cold = _ktiler(tracer=cold_tracer).plan(freq)

    counts = _count_frequency_independent_work(monkeypatch)
    warm_tracer = Tracer()
    ktiler = _ktiler(store=ArtifactStore(_copy(warm[0], tmp_path)), tracer=warm_tracer)
    memoized = _memoized_line_sets(ktiler.graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = ktiler.plan(freq)

    assert _view(plan) == _view(cold)
    assert plan.ledger.entries == cold.ledger.entries
    assert _traced(warm_tracer) == _traced(cold_tracer)
    assert counts == {"tile_structure": [], "mem_lines": 0, "access_ranges": 0}
    assert _memoized_line_sets(ktiler.graph) == memoized
    assert plan.stats.tilings_evaluated > 0 and plan.stats.adopted_merges > 0


def test_corrupted_structure_entry_costs_only_its_recompute(warm, tmp_path, monkeypatch):
    freq = POINTS[-1]
    cold = _ktiler()
    expected = cold.plan(freq)
    # The first node set this point evaluates (the memo keeps order).
    victim = next(iter(cold._structures))
    root = _copy(warm[0], tmp_path)
    store = ArtifactStore(root)
    key = store.key_for(
        structure_key(structure_scope(cold.graph, SPEC, True), victim)
    )
    path = store.path("structure", key)
    with open(path, "r+b") as fh:
        intact = fh.read()
        fh.truncate(len(intact) // 2)

    counts = _count_frequency_independent_work(monkeypatch)
    with pytest.warns(RuntimeWarning, match="unreadable entry"):
        recovered = _ktiler(store=store).plan(freq)
    assert _view(recovered) == _view(expected)
    assert counts["tile_structure"] == [victim]
    assert store.corrupt == 1
    # The recompute heals the entry with the bytes the fill wrote.
    with open(path, "rb") as fh:
        assert fh.read() == intact


def test_structure_entry_naming_a_negative_node_is_a_warned_miss(
    warm, tmp_path, monkeypatch
):
    """-1 must not resolve to the graph's last node: the entry is
    corrupt, and the structure is computed again."""
    freq = POINTS[-1]
    cold = _ktiler()
    expected = cold.plan(freq)
    victim = next(iter(cold._structures))
    store = ArtifactStore(_copy(warm[0], tmp_path))
    key = store.key_for(
        structure_key(structure_scope(cold.graph, SPEC, True), victim)
    )
    path = store.path("structure", key)
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    renamed = max(victim)
    payload = envelope["payload"]
    payload["nodes"] = sorted(-1 if v == renamed else v for v in payload["nodes"])
    for step in payload["steps"]:
        if step[0] == "round":
            for launch in step[2]:
                if launch[0] == renamed:
                    launch[0] = -1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)

    counts = _count_frequency_independent_work(monkeypatch)
    with pytest.warns(RuntimeWarning, match="unknown node id -1"):
        recovered = _ktiler(store=store).plan(freq)
    assert _view(recovered) == _view(expected)
    assert counts["tile_structure"] == [victim]
    assert store.corrupt == 1
