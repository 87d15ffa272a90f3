"""Benchmark configuration.

Every benchmark regenerates one evaluation artifact of the paper
(figure or in-text table) through :mod:`repro.experiments` and asserts
the paper's qualitative *shape* — who wins, by roughly what factor,
where crossovers fall.  Absolute numbers differ from the paper (our
substrate is a simulator, not a GTX 960M); EXPERIMENTS.md records both
side by side.

Experiments are expensive (seconds to minutes of trace simulation), so
each one runs exactly once via ``benchmark.pedantic(rounds=1)`` and the
result is cached for the assertion phase.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

#: Version stamp of the BENCH_*.json artifacts.
BENCH_SCHEMA_VERSION = 1


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def time_wall(fn, repeats: int = 3, warmup: int = 1) -> dict:
    """``fn()`` timed by :func:`repro.obs.bench.run_benchmark`.

    Returns the wall series' ``median_s``, ``mad_s`` and ``samples_s``
    (seconds) and the repeat count.  What ``fn`` returns is dropped, so
    no repeat keeps a result alive.
    """
    from repro.obs.bench import mad, median, run_benchmark

    def call(tracer):
        fn()

    wall = [run.wall_s for run in run_benchmark(call, repeats, warmup)]
    return {
        "median_s": median(wall),
        "mad_s": mad(wall),
        "repeats": len(wall),
        "samples_s": wall,
    }


def bench_entry(stats: dict) -> dict:
    """A :func:`time_wall` summary, rounded for ``BENCH_perf.json``."""
    return {
        "median_s": round(stats["median_s"], 4),
        "mad_s": round(stats["mad_s"], 5),
        "repeats": stats["repeats"],
        "samples_s": [round(s, 4) for s in stats["samples_s"]],
    }


def update_bench_json(name: str, key: str, payload: dict) -> dict:
    """Merge one benchmark's results into a machine-readable artifact.

    ``BENCH_fig5.json`` / ``BENCH_perf.json`` track the perf trajectory
    across PRs: each benchmark writes its section under ``key``, other
    sections from the same run are preserved, and a corrupt or foreign
    file is replaced rather than crashing the benchmark.  Files land in
    the current working directory (the ``benchmarks/`` job dir in CI,
    where they are uploaded as artifacts).
    """
    data: dict = {}
    if os.path.exists(name):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if isinstance(existing, dict):
                data = existing
        except (OSError, ValueError):
            pass
    data["schema_version"] = BENCH_SCHEMA_VERSION
    data[key] = payload
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return data


def replay_workload(size: int = 768, repeats: int = 3):
    """Deterministic production-shaped L2 line stream for the perf guard.

    The concatenated per-block line stream of a real pointwise kernel
    over a ``size``x``size`` image (several MB against a 2 MB L2),
    tiled ``repeats`` times so warm re-runs with cross-launch reuse are
    part of the stream — exactly the stream shape the launch simulator
    replays.  Fully deterministic, so measured reference/fast ratios
    are comparable across commits.
    """
    from repro.graph.buffers import BufferAllocator
    from repro.kernels.pointwise import ScaleKernel

    alloc = BufferAllocator()
    src = alloc.new_image("src", size, size)
    out = alloc.new_image("out", size, size)
    kernel = ScaleKernel(src, out, 2.0)
    lines, writes, _ = kernel.range_line_arrays(range(kernel.num_blocks), 7)
    return np.tile(lines, repeats), np.tile(writes, repeats)


def scattered_workload(n: int = 500_000, seed: int = 20260805):
    """Adversarial uniform-random stream (worst case for the fast engine).

    Near-uniform line draws maximize the number of replay rounds (the
    per-set access depth), the fast engine's degenerate regime.  The
    perf guard reports this ratio but doesn't floor it.
    """
    gen = np.random.default_rng(seed)
    lines = gen.integers(0, 32_768, size=n, dtype=np.int64)
    return lines, gen.random(n) < 0.3
