"""Figure 5: end-to-end HSOpticalFlow time, default vs KTILER (+/- IG).

The paper's headline experiment: under four DVFS operating points,
measure the application in the default mode, under the KTILER schedule
including the inter-launch gap, and with the gap hypothetically removed
(Timeline-View style).  Paper results: 25% mean gain with the IG, 36%
without it, with larger gains at the lower memory frequencies and a
larger IG penalty at the higher ones.

Scale note: the default parameters use the scaled platform of
:mod:`repro.experiments.presets` (256x256 frames / 512 KB L2), which
preserves the paper's footprint-to-cache ratio; pass
``frame_size=1024, jacobi_iters=500, spec=PAPER_SPEC`` for the paper's
exact configuration if simulation time is no concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.apps.hsopticalflow import OpticalFlowApp, build_hsopticalflow
from repro.core.ktiler import KTiler, KTilerConfig
from repro.experiments.presets import (
    SCALED_FRAME_SIZE,
    SCALED_JACOBI_ITERS,
    SCALED_LEVELS,
    SCALED_SPEC,
)
from repro.gpusim import GpuSpec
from repro.core.fast_cluster import resolve_planner_backend
from repro.gpusim.freq import FIG5_CONFIGS, FrequencyConfig
from repro.obs.tracer import NULL_TRACER
from repro.runtime.functional import schedules_equivalent
from repro.runtime.report import ComparisonReport, compare_default_vs_ktiler


@dataclass
class Fig5Result:
    app: OpticalFlowApp
    report: ComparisonReport
    plan_stats: Dict[FrequencyConfig, "object"]
    functional_ok: Optional[bool]

    @property
    def mean_gain_with_ig(self) -> float:
        return self.report.mean_gain_with_ig

    @property
    def mean_gain_without_ig(self) -> float:
        return self.report.mean_gain_without_ig

    def format_table(self) -> str:
        lines = [
            "Figure 5: HSOpticalFlow end-to-end, default vs KTILER",
            self.report.format_table(),
        ]
        for freq, stats in self.plan_stats.items():
            lines.append(
                f"  plan {freq.label}: {stats.adopted_merges} merges adopted, "
                f"{stats.rejected_merges} rejected, "
                f"{stats.invalid_partitions} invalid partitions"
            )
        if self.functional_ok is not None:
            lines.append(f"  tiled schedule functionally equivalent: "
                         f"{self.functional_ok}")
        return "\n".join(lines)


def run_fig5(
    frame_size: int = SCALED_FRAME_SIZE,
    levels: int = SCALED_LEVELS,
    jacobi_iters: int = SCALED_JACOBI_ITERS,
    spec: Optional[GpuSpec] = None,
    configs: Sequence[FrequencyConfig] = FIG5_CONFIGS,
    threshold_us: float = 0.0,
    check_functional: bool = False,
    tracer=NULL_TRACER,
    store=None,
    planner_backend: Optional[str] = None,
) -> Fig5Result:
    """Reproduce the Figure 5 experiment.

    Pass an enabled :class:`repro.obs.Tracer` to capture scheduler
    decisions, per-launch counters, and the default/tiled timelines of
    every operating point (``ktiler fig5 --trace out.json``).
    ``store`` (an :class:`repro.store.ArtifactStore`) makes reruns of
    the same configuration serve schedules, profiles and replays from
    disk, leaving the result bit-identical.
    """
    used_spec = spec if spec is not None else SCALED_SPEC
    planner_backend = resolve_planner_backend(planner_backend, default="fast")
    app = build_hsopticalflow(
        frame_size=frame_size, levels=levels, jacobi_iters=jacobi_iters
    )
    ktiler = KTiler(
        app.graph,
        spec=used_spec,
        config=KTilerConfig(
            threshold_us=threshold_us,
            launch_overhead_us=used_spec.launch_gap_us,
        ),
        tracer=tracer,
        store=store,
        planner_backend=planner_backend,
    )
    report = compare_default_vs_ktiler(ktiler, configs)
    plan_stats = {freq: ktiler.plan(freq).stats for freq in configs}
    functional_ok = None
    if check_functional:
        plan = ktiler.plan(configs[0])
        functional_ok, _ = schedules_equivalent(
            app.graph, plan.schedule, app.host_inputs()
        )
    return Fig5Result(
        app=app, report=report, plan_stats=plan_stats, functional_ok=functional_ok
    )
