"""Ablation studies over KTILER's design knobs.

Three sweeps, each isolating one of the design choices DESIGN.md calls
out:

* **threshold** (§IV-C): the edge-weight threshold that prunes merge
  candidates.  Low thresholds explore more merges (slower scheduling,
  same or better schedules); too high a threshold removes profitable
  merges and the gain collapses to zero.
* **cache size** (§IV-C2): the footprint budget *is* the L2 size, so
  shrinking the simulated L2 moves the footprint:cache ratio.  Tiny
  caches leave no room for producer+consumer rounds; huge caches make
  the default schedule hit anyway; the gain peaks in between.
* **inter-launch gap** (§II/§V): tiling multiplies launches, so the
  gap is KTILER's main overhead.  As it grows, Algorithm 1 adopts
  fewer merges and the with-IG gain decays toward zero — the paper's
  argument for driver-level IG mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.apps.synthetic import build_jacobi_pingpong
from repro.core.ktiler import KTiler, KTilerConfig
from repro.gpusim import GpuSpec
from repro.core.fast_cluster import resolve_planner_backend
from repro.gpusim.freq import FrequencyConfig, NOMINAL
from repro.graph.kernel_graph import KernelGraph
from repro.runtime.launcher import measure_at, tally_schedule
from repro.runtime.report import default_tallies


@dataclass(frozen=True)
class AblationRow:
    parameter: float
    gain_with_ig: float
    gain_without_ig: float
    ktiler_launches: int
    adopted_merges: int

    def format_row(self, name: str) -> str:
        return (
            f"  {name}={self.parameter:<10g} gain={self.gain_with_ig * 100:+6.1f}% "
            f"(w/o IG {self.gain_without_ig * 100:+6.1f}%)  "
            f"launches={self.ktiler_launches:<5d} merges={self.adopted_merges}"
        )


@dataclass
class AblationResult:
    name: str
    rows: List[AblationRow]

    def format_table(self) -> str:
        lines = [f"Ablation: {self.name}"]
        lines += [row.format_row(self.name) for row in self.rows]
        return "\n".join(lines)


def _default_app() -> KernelGraph:
    """The standard ablation workload: a Jacobi ping-pong chain whose
    working set (7 x 256 KB) exceeds the scaled 512 KB L2."""
    return build_jacobi_pingpong(iters=8, size=256).graph


def _measure(
    graph: KernelGraph,
    spec: GpuSpec,
    freq: FrequencyConfig,
    config: KTilerConfig,
    gap_us: float,
    store=None,
    planner_backend: Optional[str] = None,
) -> AblationRow:
    ktiler = KTiler(
        graph, spec=spec, config=config, store=store,
        planner_backend=planner_backend,
    )
    plan = ktiler.plan(freq)
    # The instrumented run the plan was built from already replayed the
    # default schedule; only the tiled schedule needs a replay.
    default_run = measure_at(default_tallies(ktiler), spec, freq, gap_us)
    tiled_run = measure_at(
        tally_schedule(plan.schedule, graph, spec),
        spec, freq, gap_us,
    )
    return AblationRow(
        parameter=0.0,
        gain_with_ig=1.0 - tiled_run.total_us / default_run.total_us,
        gain_without_ig=1.0 - tiled_run.busy_us / default_run.busy_us,
        ktiler_launches=tiled_run.num_launches,
        adopted_merges=plan.stats.adopted_merges,
    )


def threshold_sweep(
    thresholds: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0),
    spec: Optional[GpuSpec] = None,
    freq: FrequencyConfig = NOMINAL,
    gap_us: float = 1.0,
    store=None,
    planner_backend: Optional[str] = None,
) -> AblationResult:
    planner_backend = resolve_planner_backend(planner_backend, default="fast")
    used_spec = spec if spec is not None else GpuSpec(l2_bytes=512 * 1024)
    graph = _default_app()
    rows = [
        replace(
            _measure(
                graph, used_spec, freq,
                KTilerConfig(threshold_us=threshold, launch_overhead_us=gap_us),
                gap_us, store, planner_backend,
            ),
            parameter=threshold,
        )
        for threshold in thresholds
    ]
    return AblationResult(name="threshold_us", rows=rows)


def cache_sweep(
    l2_sizes: Sequence[int] = tuple(
        kb * 1024 for kb in (64, 128, 256, 512, 1024, 2048, 4096)
    ),
    freq: FrequencyConfig = NOMINAL,
    gap_us: float = 1.0,
    store=None,
    planner_backend: Optional[str] = None,
) -> AblationResult:
    planner_backend = resolve_planner_backend(planner_backend, default="fast")
    graph = _default_app()
    rows = [
        replace(
            _measure(
                graph, GpuSpec(l2_bytes=l2_bytes), freq,
                KTilerConfig(launch_overhead_us=gap_us),
                gap_us, store, planner_backend,
            ),
            parameter=l2_bytes / 1024.0,
        )
        for l2_bytes in l2_sizes
    ]
    return AblationResult(name="l2_kb", rows=rows)


def gap_sweep(
    gaps_us: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    spec: Optional[GpuSpec] = None,
    freq: FrequencyConfig = NOMINAL,
    store=None,
    planner_backend: Optional[str] = None,
) -> AblationResult:
    planner_backend = resolve_planner_backend(planner_backend, default="fast")
    used_spec = spec if spec is not None else GpuSpec(l2_bytes=512 * 1024)
    graph = _default_app()
    rows = [
        replace(
            _measure(
                graph, used_spec, freq,
                KTilerConfig(launch_overhead_us=gap),
                gap, store, planner_backend,
            ),
            parameter=gap,
        )
        for gap in gaps_us
    ]
    return AblationResult(name="gap_us", rows=rows)
