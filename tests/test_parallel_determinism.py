"""Differential determinism suite for the parallel pipeline.

The repository's hard invariant for :mod:`repro.parallel` is that the
worker count is a pure wall-clock knob: for ANY application graph and
ANY worker count, the schedules, perf tables, and comparison reports
are bit-identical to the serial run.  This suite enforces it with the
same differential-oracle pattern the cache suite uses — run the serial
pipeline as the oracle, then rerun under ``workers ∈ {2, 4}`` and
require exact (not approximate) equality of every artifact:

* the tiled schedule, compared through ``core.serialize`` (sub-kernel
  node ids + block tuples, i.e. the complete launch order);
* the scheduler telemetry (``TilingStats``) — the speculative parallel
  tiling must reconcile its stats with the serial evaluation counts;
* the profiler's raw tallies (the frequency-independent backing data
  of every performance table);
* every row of the default-vs-KTILER ``ComparisonReport``.

Hypothesis draws the applications; each drawn configuration's serial
oracle is computed once and memoized, so the examples stay cheap.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import (
    build_diamond,
    build_jacobi_pingpong,
    build_scale_chain,
    build_stencil_chain,
)
from repro.core.ktiler import KTiler, KTilerConfig
from repro.core.serialize import schedule_to_dict
from repro.gpusim import GpuSpec
from repro.gpusim.freq import FIG5_CONFIGS, NOMINAL
from repro.parallel import in_worker, parallel_map, resolve_workers
from repro.runtime import compare_default_vs_ktiler

#: Small L2 so cache pressure (and therefore merges) appears at test
#: scale; 1 us gap so the launch-overhead term is exercised too.
SMALL_SPEC = GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0)

WORKER_COUNTS = (2, 4)
FREQS = (FIG5_CONFIGS[0], NOMINAL)

#: Application family × size knob.  Kept small: every app runs the
#: full pipeline 1 + len(WORKER_COUNTS) times.
APPS = {
    "jacobi": lambda n: build_jacobi_pingpong(iters=2 + n, size=64).graph,
    "diamond": lambda n: build_diamond(size=48 + 16 * n).graph,
    "chain": lambda n: build_scale_chain(length=2 + n, size=64).graph,
    "stencil": lambda n: build_stencil_chain(length=2 + n, size=64).graph,
}


def pipeline_outputs(graph, workers: int) -> dict:
    """Every artifact the determinism contract covers, for one run."""
    ktiler = KTiler(
        graph,
        spec=SMALL_SPEC,
        config=KTilerConfig(launch_overhead_us=SMALL_SPEC.launch_gap_us),
        workers=workers,
    )
    plan = ktiler.plan(NOMINAL)
    report = compare_default_vs_ktiler(ktiler, FREQS)
    profiles = {
        (kernel.name, kernel.num_blocks, tuple(sorted(combo)), grid): tally
        for kernel, profile in ktiler.profiler._profiles.items()
        for (combo, grid), tally in profile.tallies.items()
    }
    return {
        "schedule": schedule_to_dict(plan.schedule, graph),
        "stats": asdict(plan.stats),
        "estimated_cost_us": plan.estimated_cost_us,
        "partition": sorted(
            sorted(plan.partition.members(c)) for c in plan.partition.cluster_ids()
        ),
        "report_rows": report.rows,
        "profiles": profiles,
    }


# One graph and one serial-oracle result per drawn configuration: the
# point of each example is the worker comparison, not a rebuild.
_graphs: dict = {}
_oracles: dict = {}


def _graph_for(app: str, n: int):
    key = (app, n)
    if key not in _graphs:
        _graphs[key] = APPS[app](n)
    return _graphs[key]


def _oracle_for(app: str, n: int) -> dict:
    key = (app, n)
    if key not in _oracles:
        _oracles[key] = pipeline_outputs(_graph_for(app, n), workers=1)
    return _oracles[key]


@given(app=st.sampled_from(sorted(APPS)), n=st.integers(0, 2))
@settings(max_examples=4, deadline=None)
def test_pipeline_bit_identical_across_worker_counts(app, n):
    """workers ∈ {2, 4} reproduce the serial oracle exactly."""
    oracle = _oracle_for(app, n)
    for workers in WORKER_COUNTS:
        produced = pipeline_outputs(_graph_for(app, n), workers)
        for artifact in oracle:
            if artifact == "profiles":
                continue
            assert produced[artifact] == oracle[artifact], (
                f"{app}(n={n}) workers={workers}: "
                f"{artifact} diverged from the serial oracle"
            )
        # Perf tables: speculative tilings run (and lazily profile)
        # inside worker processes, so the parent may memoize FEWER
        # combos than the serial run — but never different ones, and
        # every entry it does hold must be bit-identical.
        assert produced["profiles"].keys() <= oracle["profiles"].keys(), (
            f"{app}(n={n}) workers={workers}: parallel run profiled "
            "entries the serial oracle never measured"
        )
        for key, tally in produced["profiles"].items():
            assert tally == oracle["profiles"][key], (
                f"{app}(n={n}) workers={workers}: "
                f"profile entry {key} diverged from the serial oracle"
            )


def test_fig3_bit_identical_across_worker_counts():
    from repro.experiments.fig3 import run_fig3

    kwargs = dict(image_size=96, grid_sizes=[1, 3, 6, 9], spec=SMALL_SPEC,
                  with_split_comparison=False)
    serial = run_fig3(workers=1, **kwargs)
    for workers in WORKER_COUNTS:
        parallel = run_fig3(workers=workers, **kwargs)
        assert parallel.grid_sizes == serial.grid_sizes
        assert parallel.throughput == serial.throughput


def test_ablation_bit_identical_across_worker_counts():
    from repro.experiments.ablations import gap_sweep

    serial = gap_sweep(gaps_us=(0.0, 1.0, 4.0), spec=SMALL_SPEC)
    for workers in WORKER_COUNTS:
        parallel = gap_sweep(gaps_us=(0.0, 1.0, 4.0), spec=SMALL_SPEC,
                             workers=workers)
        assert parallel.rows == serial.rows


# ----------------------------------------------------------------------
# The pool primitive itself
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x


def _whoami(_: int):
    import os

    from repro.parallel import in_worker as _in_worker

    return os.getpid(), _in_worker()


def test_parallel_map_preserves_input_order():
    items = list(range(20))
    assert parallel_map(_square, items, workers=4) == [x * x for x in items]


def test_parallel_map_serial_fallback_runs_in_process():
    pids = parallel_map(_whoami, [0, 1], workers=1)
    import os

    assert pids == [(os.getpid(), False)] * 2


def test_parallel_map_runs_in_worker_processes():
    results = parallel_map(_whoami, list(range(8)), workers=2)
    import os

    assert all(pid != os.getpid() for pid, _ in results)
    assert all(flagged for _, flagged in results), (
        "workers must see in_worker()=True (the nested-pool guard)"
    )


def test_parallel_map_propagates_task_exceptions():
    with pytest.raises(ValueError, match="three"):
        parallel_map(_raise_on_three, [1, 2, 3, 4], workers=2)


def test_parent_process_is_not_a_worker():
    assert not in_worker()


def test_resolve_workers_precedence(monkeypatch):
    from repro.errors import ConfigurationError
    from repro.parallel import WORKERS_ENV_VAR

    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    assert resolve_workers() == 2
    assert resolve_workers(4) == 4  # argument beats environment
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
    with pytest.raises(ConfigurationError):
        resolve_workers()
    with pytest.raises(ConfigurationError):
        resolve_workers(0)
