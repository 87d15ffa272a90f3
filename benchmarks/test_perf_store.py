"""PERF GUARD: the artifact cache must actually pay off.

Run the scaled fig5 cold (fresh store per repeat) and warm (one
pre-populated store) and compare the medians, with the statistical
harness (``repro.obs.bench.run_benchmark`` through
``conftest.time_wall``: repeats + median, so one scheduler hiccup
cannot fail the job).  The cold run schedules, profiles, and replays
from scratch; the warm run serves plans, profiles, and replays from
disk and skips the whole scheduler.
Measured ~8-20x on the development machine; floor 3.0x.  Both runs
(and a store-less baseline) must produce bit-identical reports before
the clock is read.  Medians land in ``BENCH_perf.json`` and the CI job
summary.

A second guard times what a DVFS sweep pays per new operating point:
one ``run_fig5`` over the four stored points plus a point the store has
no plan for, against a cold run of that point alone.  The warm run
restores the trace, block graph, profiles and Algorithm 2 structures,
so it only plans (Algorithm 1 and Algorithm 2's cost pass) and checks
the new schedule.  Measured 4.0-6.0x on a 2-vCPU box, against 2.0x
when the store kept no structures; floor 2.5x.

The whole module carries the ``perf`` marker: tier-1 excludes it by
marker, the CI bench job opts in with ``-m perf``.
"""

from __future__ import annotations

import pytest

from conftest import bench_entry, time_wall, update_bench_json

pytestmark = pytest.mark.perf

WARM_FIG5_FLOOR = 3.0
NEW_POINT_FLOOR = 2.5

#: Reduced fig5 scale: same code path, ~4x faster cold run so the
#: benchmark stays CI-friendly. The store serves the same artifacts.
FIG5_KWARGS = dict(frame_size=128, levels=2, jacobi_iters=10)


def _rows(result):
    return result.report.rows


def test_warm_cache_fig5_speedup(tmp_path):
    from repro.experiments import run_fig5
    from repro.store import ArtifactStore

    baseline = run_fig5(**FIG5_KWARGS)

    # Populate one store for the warm side and assert identity + full
    # store service before any timing.
    seed_store = ArtifactStore(tmp_path / "seed")
    cold_check = run_fig5(store=seed_store, **FIG5_KWARGS)
    warm_store = ArtifactStore(tmp_path / "seed")
    warm_check = run_fig5(store=warm_store, **FIG5_KWARGS)
    assert _rows(cold_check) == _rows(baseline)
    assert _rows(warm_check) == _rows(baseline)
    assert warm_store.hits > 0 and warm_store.misses == 0, (
        "warm run did not serve from the artifact store"
    )

    # Cold: a fresh store per repeat, so every repeat really is cold.
    cold_dirs = iter(str(tmp_path / f"cold{i}") for i in range(16))

    cold_res = time_wall(
        lambda: run_fig5(store=ArtifactStore(next(cold_dirs)), **FIG5_KWARGS),
        warmup=0,
    )
    warm_res = time_wall(
        lambda: run_fig5(store=ArtifactStore(tmp_path / "seed"), **FIG5_KWARGS)
    )
    ratio = cold_res["median_s"] / warm_res["median_s"]

    print(
        f"\nwarm fig5: cold {cold_res['median_s']:.3f}s "
        f"warm {warm_res['median_s']:.3f}s -> {ratio:.2f}x"
    )
    update_bench_json(
        "BENCH_perf.json",
        "warm_cache_fig5",
        {
            "cold": bench_entry(cold_res),
            "warm": bench_entry(warm_res),
            "speedup": round(ratio, 2),
            "warm_hits": warm_store.hits,
            "floor": WARM_FIG5_FLOOR,
        },
    )
    assert ratio >= WARM_FIG5_FLOOR, (
        f"warm artifact-cache fig5 only {ratio:.2f}x over cold "
        f"(floor {WARM_FIG5_FLOOR}x, median of {cold_res['repeats']})"
    )


def test_warm_store_new_point_speedup(tmp_path):
    from repro.experiments import run_fig5
    from repro.gpusim.freq import FIG5_CONFIGS, FrequencyConfig
    from repro.store import ArtifactStore

    # Points of the bench's DVFS ladder: each repeat meets a point the
    # store holds no plan for.
    points = iter(
        FrequencyConfig(gpu, mem)
        for mem in (810.0, 1000.0)
        for gpu in (1324.0, 1189.0, 1050.0, 924.0, 797.0, 666.0)
    )
    store_dir = tmp_path / "warm"
    run_fig5(store=ArtifactStore(store_dir), **FIG5_KWARGS)

    check = next(points)
    cold_check = run_fig5(configs=(check,), **FIG5_KWARGS)
    warm_store = ArtifactStore(store_dir)
    warm_check = run_fig5(
        configs=tuple(FIG5_CONFIGS) + (check,), store=warm_store, **FIG5_KWARGS
    )
    assert _rows(warm_check)[-1] == _rows(cold_check)[0]
    assert warm_store.misses == 1 and warm_store.corrupt == 0, (
        "the new point recomputed more than its plan"
    )

    cold_res = time_wall(
        lambda: run_fig5(configs=(next(points),), **FIG5_KWARGS), warmup=0
    )
    warm_res = time_wall(
        lambda: run_fig5(
            configs=tuple(FIG5_CONFIGS) + (next(points),),
            store=ArtifactStore(store_dir),
            **FIG5_KWARGS,
        )
    )
    ratio = cold_res["median_s"] / warm_res["median_s"]

    print(
        f"\nwarm new point: cold {cold_res['median_s']:.3f}s "
        f"warm {warm_res['median_s']:.3f}s -> {ratio:.2f}x"
    )
    update_bench_json(
        "BENCH_perf.json",
        "warm_store_new_point",
        {
            "cold": bench_entry(cold_res),
            "warm": bench_entry(warm_res),
            "speedup": round(ratio, 2),
            "floor": NEW_POINT_FLOOR,
        },
    )
    assert ratio >= NEW_POINT_FLOOR, (
        f"a new point on a warm store only {ratio:.2f}x over cold "
        f"(floor {NEW_POINT_FLOOR}x, median of {cold_res['repeats']})"
    )
