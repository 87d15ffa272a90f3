"""PERF GUARD: a warm serve hit must skip the kernel graph.

A memoized Fig. 5 request answered in process through
``PlanService.plan`` (validation, front-memo fingerprint, byte memo,
telemetry, response splice) against what every hit used to pay before
the memo lookup: one parse that builds the 92-node HSOpticalFlow graph
plus one ``plan_fingerprint`` that hashes it.  Measured ~26x on a
2-vCPU VM (0.19 ms vs 5.1 ms); floor 5x.

Identity is asserted before the clock is read: the warm hit must be a
memo hit and carry the fingerprint the old path computes.  Medians
land in ``BENCH_perf.json`` (and the CI job summary).  The module
carries the ``perf`` marker: tier-1 excludes it, the CI bench job opts
in with ``-m perf``.
"""

from __future__ import annotations

import json

import pytest

from conftest import time_wall, update_bench_json

pytestmark = pytest.mark.perf

WARM_HIT_FLOOR = 5.0

FIG5 = {"app": {"preset": "fig5"}}

#: Calls per timed repeat: one warm hit is ~0.1 ms, below timer noise.
HITS_PER_REPEAT = 200
OLD_PATHS_PER_REPEAT = 20


def _stats_payload(stats, calls):
    return {
        "median_ms_per_call": round(stats["median_s"] / calls * 1e3, 4),
        "mad_ms_per_call": round(stats["mad_s"] / calls * 1e3, 5),
        "repeats": stats["repeats"],
        "calls_per_repeat": calls,
    }


def test_warm_hit_skips_graph_build_and_hash():
    from repro.serve.service import PlanService
    from repro.serve.wire import parse_plan_request, plan_fingerprint
    from repro.store.store import NULL_STORE

    def old_path():
        return plan_fingerprint(parse_plan_request(FIG5), NULL_STORE.key_for)

    service = PlanService()
    try:
        planned = json.loads(service.plan(FIG5))
        warm = json.loads(service.plan(FIG5))
        assert warm["served"] == "memo"
        assert warm["fingerprint"] == planned["fingerprint"] == old_path()

        hit_res = time_wall(
            lambda: [service.plan(FIG5) for _ in range(HITS_PER_REPEAT)],
            repeats=5,
        )
        old_res = time_wall(
            lambda: [old_path() for _ in range(OLD_PATHS_PER_REPEAT)],
            repeats=5,
        )
    finally:
        service.close()
    hit_ms = hit_res["median_s"] / HITS_PER_REPEAT * 1e3
    old_ms = old_res["median_s"] / OLD_PATHS_PER_REPEAT * 1e3
    ratio = old_ms / hit_ms

    print(
        f"\nserve warm hit: {hit_ms:.3f}ms vs parse+fingerprint "
        f"{old_ms:.3f}ms -> {ratio:.1f}x"
    )
    update_bench_json(
        "BENCH_perf.json",
        "serve_warm_hit",
        {
            "warm_hit": _stats_payload(hit_res, HITS_PER_REPEAT),
            "parse_and_fingerprint": _stats_payload(old_res, OLD_PATHS_PER_REPEAT),
            "speedup": round(ratio, 2),
            "floor": WARM_HIT_FLOOR,
        },
    )
    assert ratio >= WARM_HIT_FLOOR, (
        f"a warm fig5 hit is only {ratio:.1f}x cheaper than one "
        f"parse+fingerprint (floor {WARM_HIT_FLOOR}x)"
    )
