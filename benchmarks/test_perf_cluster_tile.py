"""PERF GUARD: Algorithm 2 must stay fast *and* identical to its oracle.

Tiles every distinct cluster of a cold Figure 5 plan (the scaled
configuration ``run_fig5()`` uses) once with the planner's integer-id
engine (:func:`repro.core.cluster_tile.cluster_tile`) and once with the
set-based oracle in ``tests/oracles.py``.  Each call is a fresh
evaluation: no ``KTiler`` structure memo is involved, so the ratio is
the engine's per-evaluation speedup, not the memo's.

Identity comes first — equal ``ClusterTiling``s (or ``None`` for both)
on every cluster — and only then the clock, measured with the
statistical harness (``repro.obs.bench.run_benchmark`` through
``conftest.time_wall``: repeats, floor asserted on the **median**
ratio).  Measured ~2.8x on a 2-vCPU x86-64 box; the floor is 1.3x to
leave room for noisy runners.
Medians land in ``BENCH_perf.json`` under ``cluster_tile``.  The
module carries the ``perf`` marker: tier-1 excludes it, the CI bench
job opts in with ``-m perf``.
"""

from __future__ import annotations

import pytest

from conftest import bench_entry, time_wall, update_bench_json

pytestmark = pytest.mark.perf

FLOOR = 1.3


def _fig5_clusters():
    """(KTiler, [(nodes, perf tables, launch overhead)]) of a cold
    four-point Figure 5 plan, one entry per distinct node set."""
    import repro.core.app_tile as app_tile
    from repro.apps import build_hsopticalflow
    from repro.core.ktiler import KTiler, KTilerConfig
    from repro.experiments.presets import (
        SCALED_FRAME_SIZE,
        SCALED_JACOBI_ITERS,
        SCALED_LEVELS,
        SCALED_SPEC,
    )
    from repro.gpusim.freq import FIG5_CONFIGS

    app = build_hsopticalflow(
        frame_size=SCALED_FRAME_SIZE,
        levels=SCALED_LEVELS,
        jacobi_iters=SCALED_JACOBI_ITERS,
    )
    ktiler = KTiler(
        app.graph,
        spec=SCALED_SPEC,
        config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
        planner_backend="fast",
    )
    priced = {}
    cost_structure = app_tile.cost_structure

    def recording(structure, perf_tables, launch_overhead_us, tracer):
        priced.setdefault(structure.nodes, (perf_tables, launch_overhead_us))
        return cost_structure(structure, perf_tables, launch_overhead_us, tracer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(app_tile, "cost_structure", recording)
        for freq in FIG5_CONFIGS:
            ktiler.plan(freq)
    return ktiler, [(nodes, *priced[nodes]) for nodes in priced]


def test_cluster_tile_speedup():
    from repro.core.cluster_tile import cluster_tile
    from tests import oracles

    ktiler, clusters = _fig5_clusters()
    graph, block_graph, mem_lines = ktiler.graph, ktiler.block_graph, ktiler.mem_lines
    cache_bytes = ktiler.spec.l2_bytes

    def tile_all(tile):
        return [
            tile(
                nodes, graph, block_graph, mem_lines, tables, cache_bytes,
                launch_overhead_us=overhead,
            )
            for nodes, tables, overhead in clusters
        ]

    # Identity first: a fast-but-wrong engine must fail here.
    engine = tile_all(cluster_tile)
    oracle = tile_all(oracles.cluster_tile)
    assert engine == oracle

    oracle_res = time_wall(lambda: tile_all(oracles.cluster_tile), warmup=0)
    engine_res = time_wall(lambda: tile_all(cluster_tile), warmup=0)
    ratio = oracle_res["median_s"] / engine_res["median_s"]
    print(
        f"\ncluster tile: oracle {oracle_res['median_s']:.3f}s "
        f"engine {engine_res['median_s']:.3f}s -> {ratio:.2f}x "
        f"over {len(clusters)} fig5 clusters"
    )
    update_bench_json(
        "BENCH_perf.json",
        "cluster_tile",
        {
            "clusters": len(clusters),
            "oracle": bench_entry(oracle_res),
            "engine": bench_entry(engine_res),
            "speedup": round(ratio, 2),
            "floor": FLOOR,
        },
    )
    assert ratio >= FLOOR, (
        f"Algorithm 2 engine only {ratio:.2f}x over the oracle "
        f"(floor {FLOOR}x, median of {engine_res['repeats']})"
    )
