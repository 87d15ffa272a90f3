"""Schedule execution on the simulated GPU (§V measurement modes).

Executes a :class:`~repro.core.schedule.Schedule` launch by launch on a
fresh simulator and reports the end-to-end time in the paper's two
views: *with* the inter-launch gap (every launch pays the driver's idle
gap) and *without* it (busy time only, the paper's "KTILER w/o IG"
mode, measured there with the NVIDIA Timeline View).

Cache replay does not depend on the operating frequency, so a schedule
is replayed once (:func:`tally_schedule`) and re-timed under any number
of DVFS configurations (:func:`measure_at`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.gpusim.arch import GpuSpec
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import GpuSimulator, LaunchTally, time_launch
from repro.gpusim.freq import FrequencyConfig, NOMINAL
from repro.gpusim.timeline import Timeline
from repro.graph.kernel_graph import KernelGraph
from repro.obs.tracer import NULL_TRACER


@dataclass
class ScheduleTallies:
    """Frequency-independent replay of one schedule."""

    schedule_name: str
    labels: List[str]
    tallies: List[LaunchTally]

    @property
    def num_launches(self) -> int:
        return len(self.tallies)

    @property
    def hits(self) -> int:
        return sum(t.hits for t in self.tallies)

    @property
    def accesses(self) -> int:
        return sum(t.accesses for t in self.tallies)

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass
class RunMeasurement:
    """One schedule, one operating point."""

    schedule_name: str
    freq: FrequencyConfig
    timeline: Timeline
    hit_rate: float

    @property
    def num_launches(self) -> int:
        return self.timeline.num_launches

    @property
    def total_us(self) -> float:
        """End-to-end time including inter-launch gaps."""
        return self.timeline.total_us

    @property
    def busy_us(self) -> float:
        """Processing time only (the "w/o IG" view)."""
        return self.timeline.busy_us


def tally_schedule(
    schedule: Schedule,
    graph: KernelGraph,
    spec: Optional[GpuSpec] = None,
    tracer=NULL_TRACER,
) -> ScheduleTallies:
    """Replay a schedule through a fresh simulator (cold L2)."""
    sim = GpuSimulator(spec, tracer=tracer)
    labels: List[str] = []
    tallies: List[LaunchTally] = []
    with tracer.span(
        "tally_schedule", cat="replay", schedule=schedule.name,
        launches=len(schedule),
    ):
        for sub in schedule:
            node = graph.node(sub.node_id)
            tallies.append(sim.tally_launch(node.kernel, sub.blocks))
            labels.append(sub.label or node.name)
    if not tallies:
        raise SimulationError("cannot measure an empty schedule")
    return ScheduleTallies(
        schedule_name=schedule.name, labels=labels, tallies=tallies
    )


def measure_at(
    replay: ScheduleTallies,
    spec: GpuSpec,
    freq: FrequencyConfig,
    launch_gap_us: Optional[float] = None,
    tracer=NULL_TRACER,
) -> RunMeasurement:
    """Time a replayed schedule at one operating point.

    With tracing enabled, every timeline event carries structured
    metadata (kernel, blocks, hit rate, occupancy, stall split) and the
    run's aggregates land in ``tracer.metrics`` under ``run.*``.
    """
    gap = spec.launch_gap_us if launch_gap_us is None else launch_gap_us
    dram = DramModel.from_spec(spec)
    timeline = Timeline(gap)
    trace_on = tracer.enabled
    for label, tally in zip(replay.labels, replay.tallies):
        timing = time_launch(tally, spec, dram, freq)
        meta = None
        if trace_on:
            meta = {
                "kernel": tally.kernel_name,
                "blocks": tally.num_blocks,
                "hits": tally.hits,
                "misses": tally.misses,
                "l2_hit_rate": round(tally.hit_rate, 6),
                "occupancy": round(
                    tally.resident_warps / spec.max_warps_per_sm, 6
                ),
                "warp_issue_efficiency": round(
                    timing.warp_issue_efficiency, 6
                ),
                "mem_stall_cycles": round(timing.mem_stall_cycles, 1),
                "bandwidth_bound": timing.bandwidth_bound,
            }
        timeline.add_launch(label, timing.time_us, meta=meta)
    if trace_on:
        name = replay.schedule_name
        m = tracer.metrics
        m.set_gauge("run.total_us", timeline.total_us, schedule=name, freq=freq.label)
        m.set_gauge("run.busy_us", timeline.busy_us, schedule=name, freq=freq.label)
        m.set_gauge("run.gap_us", timeline.total_gap_us, schedule=name, freq=freq.label)
        m.set_gauge(
            "run.launches", timeline.num_launches, schedule=name, freq=freq.label
        )
        m.set_gauge("run.l2_hit_rate", replay.hit_rate, schedule=name, freq=freq.label)
    return RunMeasurement(
        schedule_name=replay.schedule_name,
        freq=freq,
        timeline=timeline,
        hit_rate=replay.hit_rate,
    )


def execute_schedule(
    schedule: Schedule,
    graph: KernelGraph,
    spec: Optional[GpuSpec] = None,
    freq: FrequencyConfig = NOMINAL,
    launch_gap_us: Optional[float] = None,
    tracer=NULL_TRACER,
) -> RunMeasurement:
    """Replay + time a schedule in one call."""
    used_spec = spec if spec is not None else GpuSpec()
    replay = tally_schedule(schedule, graph, used_spec, tracer=tracer)
    return measure_at(replay, used_spec, freq, launch_gap_us, tracer=tracer)
