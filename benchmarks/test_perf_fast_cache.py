"""PERF GUARD: the simulator's L2 must stay fast *and* bit-identical.

One floored guard plus one reported-only data point, measured with the
statistical harness (``repro.obs.bench.run_benchmark`` through
``conftest.time_wall``: warmup + repeats, floor asserted on the
**median** ratio) so a single scheduler
hiccup on a noisy CI runner can no longer fail the job.  The floor is
deliberately conservative (the measured median ratio on the development
machine is noted inline; the floor leaves ~2x headroom for slower CI
runners):

* **raw replay** — the production-shaped stream (a real kernel's
  concatenated per-block line arrays, the exact stream shape the
  launch simulator replays) through the list-based oracle's inlined
  ``access_stream`` loop (``tests/oracles.py``) vs. the vectorized
  engine's ``replay_arrays``.  Measured ~3.5-5x; floor 1.8x.
* **adversarial stream** — uniform-random lines maximize the per-set
  access depth (the round count), the vectorized engine's degenerate
  regime; measured ~0.6-2x vs ``access_stream`` depending on the
  working-set-to-capacity ratio.  Reported in ``BENCH_perf.json`` for
  the trend, not floored: the simulator never produces this shape, but
  pretending it doesn't exist would be dishonest benchmarking.

The floored guard asserts exact equality of results before it looks
at the clock: a fast-but-wrong engine must fail here, not in CI
statistics.  Measured medians/MADs land in ``BENCH_perf.json`` (and
the CI job summary) so the trend stays visible while the floors stay
conservative.  The whole module carries the ``perf`` marker: tier-1
excludes it by marker, the CI bench job opts in with ``-m perf``.
"""

from __future__ import annotations

import pytest

from conftest import (
    bench_entry,
    replay_workload,
    scattered_workload,
    time_wall,
    update_bench_json,
)

pytestmark = pytest.mark.perf

RAW_FLOOR = 1.8

L2_GEOMETRY = dict(num_sets=1024, assoc=16, line_bytes=128)  # GTX 960M


def test_raw_replay_speedup():
    from repro.gpusim.fast_cache import FastSetAssocCache
    from tests.oracles import SetAssocCache

    lines, writes = replay_workload()
    stream = list(zip((int(l) for l in lines), (bool(w) for w in writes)))

    # Identity first: same per-stream totals, same counters, same state.
    ref = SetAssocCache(**L2_GEOMETRY)
    ref_hits, ref_misses = ref.access_stream(stream)
    fast = FastSetAssocCache(**L2_GEOMETRY)
    mask = fast.replay_arrays(lines, writes)
    assert (int(mask.sum()), int((~mask).sum())) == (ref_hits, ref_misses)
    assert ref.stats.snapshot() == fast.stats.snapshot()
    assert [list(s) for s in ref.clone_state()] == fast.clone_state()

    # Then the clock: fresh cache per repeat, floors on the medians.
    ref_res = time_wall(
        lambda: SetAssocCache(**L2_GEOMETRY).access_stream(stream)
    )
    fast_res = time_wall(
        lambda: FastSetAssocCache(**L2_GEOMETRY).replay_arrays(lines, writes)
    )
    ratio = ref_res["median_s"] / fast_res["median_s"]

    # Adversarial data point (reported, not floored — see module docs).
    adv_lines, adv_writes = scattered_workload()
    adv_stream = list(
        zip((int(l) for l in adv_lines), (bool(w) for w in adv_writes))
    )
    adv_ref = SetAssocCache(**L2_GEOMETRY)
    adv_ref.access_stream(adv_stream)
    adv_fast = FastSetAssocCache(**L2_GEOMETRY)
    adv_fast.replay_arrays(adv_lines, adv_writes)
    assert adv_ref.stats.snapshot() == adv_fast.stats.snapshot()
    adv_ref_res = time_wall(
        lambda: SetAssocCache(**L2_GEOMETRY).access_stream(adv_stream),
        warmup=0,
    )
    adv_fast_res = time_wall(
        lambda: FastSetAssocCache(**L2_GEOMETRY).replay_arrays(
            adv_lines, adv_writes
        ),
        warmup=0,
    )
    adv_ratio = adv_ref_res["median_s"] / adv_fast_res["median_s"]

    print(
        f"\nraw replay: reference {ref_res['median_s']:.3f}s "
        f"fast {fast_res['median_s']:.3f}s -> {ratio:.2f}x "
        f"(adversarial {adv_ratio:.2f}x)"
    )
    update_bench_json(
        "BENCH_perf.json",
        "raw_replay",
        {
            "accesses": int(lines.size),
            "reference": bench_entry(ref_res),
            "fast": bench_entry(fast_res),
            "speedup": round(ratio, 2),
            "adversarial_speedup": round(adv_ratio, 2),
            "hit_rate": round(ref_hits / (ref_hits + ref_misses), 4),
            "floor": RAW_FLOOR,
        },
    )
    assert ratio >= RAW_FLOOR, (
        f"vectorized raw replay only {ratio:.2f}x over the oracle "
        f"(floor {RAW_FLOOR}x, median of {ref_res['repeats']})"
    )
