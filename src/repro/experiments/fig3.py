"""Figure 3: Jacobi throughput vs. grid size under four DVFS points.

The paper measures the throughput (blocks per microsecond) of the
Jacobi kernel as a function of its grid size under four (GPU, MEM) MHz
configurations.  The curves rise with grid size while GPU utilization
improves, peak where the working set saturates the L2 (344 blocks on
the paper's platform), then fall as the hit rate degrades; at large
grids the low-memory-frequency series collapses to about half of the
high-frequency one, while near the peak they coincide (requests are
served from the L2 and never reach DRAM).

The measurement protocol mirrors the paper's application context: a
*steady-state* ping-pong — the measured launch consumes what the
previous launch over the same blocks produced, so small grids find
their inputs in cache and large grids have evicted them.

The module also reproduces the §II "series split" observation: running
1000 blocks as four 250-block sub-kernels at the lowest operating
point beats one 1000-block launch at a far higher memory frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.synthetic import build_jacobi_pingpong
from repro.gpusim import GpuSimulator, GpuSpec
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import LaunchTally, time_launch
from repro.gpusim.freq import FIG3_CONFIGS, FrequencyConfig


def default_grid_sizes(max_blocks: int) -> List[int]:
    """A dense sweep: powers of two plus intermediate points."""
    sizes = set()
    g = 1
    while g < max_blocks:
        sizes.add(g)
        sizes.add(min(max_blocks, g + g // 2))
        g *= 2
    sizes.add(max_blocks)
    return sorted(sizes)


@dataclass
class Fig3Result:
    grid_sizes: List[int]
    configs: List[FrequencyConfig]
    #: throughput[config][i] in blocks/us for grid_sizes[i]
    throughput: Dict[FrequencyConfig, List[float]]
    split_comparison: Dict[str, float] = field(default_factory=dict)

    def peak(self, config: FrequencyConfig) -> Tuple[int, float]:
        series = self.throughput[config]
        best = max(range(len(series)), key=series.__getitem__)
        return self.grid_sizes[best], series[best]

    def at_grid(self, config: FrequencyConfig, grid: int) -> float:
        return self.throughput[config][self.grid_sizes.index(grid)]

    def format_table(self) -> str:
        header = "Figure 3: Jacobi throughput (blocks/us) vs grid size"
        cols = "  ".join(f"{c.label:>12}" for c in self.configs)
        lines = [header, f"  {'grid':>6}  {cols}"]
        for i, grid in enumerate(self.grid_sizes):
            vals = "  ".join(
                f"{self.throughput[c][i]:12.2f}" for c in self.configs
            )
            lines.append(f"  {grid:>6}  {vals}")
        for config in self.configs:
            grid, peak = self.peak(config)
            lines.append(f"  peak {config.label}: {peak:.2f} blocks/us at {grid}")
        if self.split_comparison:
            lines.append(
                "  series split: {one_launch_high_freq:.2f} blocks/us "
                "(1000 blocks, series-3) vs {split_low_freq:.2f} blocks/us "
                "(4x250 blocks, series-1)".format(**self.split_comparison)
            )
        return "\n".join(lines)


def _steady_state_tallies(
    spec: GpuSpec,
    image_size: int,
    blocks: Sequence[int],
    warmup: int = 2,
    measure: int = 2,
    launches_fn=None,
    tracer=None,
    app=None,
) -> List[LaunchTally]:
    """Tallies of ping-pong Jacobi launches over a fixed block set.

    ``app`` lets one prebuilt application serve many grid sizes so the
    kernels' memoized line streams are shared across the sweep.
    """
    if app is None:
        app = build_jacobi_pingpong(iters=2, size=image_size)
    graph = app.graph
    even = graph.node_by_name("JI.0").kernel
    odd = graph.node_by_name("JI.1").kernel
    sim = GpuSimulator(spec, tracer=tracer)
    # Populate the constant fields once (ix/iy/it and the zero inits).
    for node in graph:
        if node.name.startswith("JI"):
            break
        sim.launch(node.kernel)
    tallies: List[LaunchTally] = []
    for i in range(warmup + measure):
        kernel = even if i % 2 == 0 else odd
        tally = sim.tally_launch(kernel, blocks)
        if i >= warmup:
            tallies.append(tally)
    return tallies


def run_fig3(
    image_size: int = 512,
    spec: Optional[GpuSpec] = None,
    configs: Sequence[FrequencyConfig] = FIG3_CONFIGS,
    grid_sizes: Optional[Sequence[int]] = None,
    with_split_comparison: bool = True,
    tracer=None,
) -> Fig3Result:
    """Reproduce the Figure 3 sweep.

    One cache replay per grid size serves every frequency configuration
    (cache behaviour is frequency-independent).
    """
    from repro.obs.tracer import NULL_TRACER

    if tracer is None:
        tracer = NULL_TRACER
    used_spec = spec if spec is not None else GpuSpec()
    dram = DramModel.from_spec(used_spec)
    app = build_jacobi_pingpong(iters=2, size=image_size)
    max_blocks = app.graph.node_by_name("JI.0").kernel.num_blocks
    sizes = (
        list(grid_sizes) if grid_sizes is not None else default_grid_sizes(max_blocks)
    )
    per_grid: List[List[LaunchTally]] = []
    for grid in sizes:
        with tracer.span("fig3.grid", cat="replay", grid=grid):
            per_grid.append(
                _steady_state_tallies(
                    used_spec,
                    image_size,
                    range(grid),
                    tracer=tracer,
                    app=app,
                )
            )
    throughput: Dict[FrequencyConfig, List[float]] = {c: [] for c in configs}
    for grid, tallies in zip(sizes, per_grid):
        for config in configs:
            total_us = sum(
                time_launch(t, used_spec, dram, config).time_us for t in tallies
            )
            blocks_done = sum(t.num_blocks for t in tallies)
            throughput[config].append(blocks_done / total_us)
            if tracer.enabled:
                tracer.metrics.set_gauge(
                    "fig3.throughput_blocks_per_us",
                    blocks_done / total_us,
                    freq=config.label,
                    grid=grid,
                )

    split: Dict[str, float] = {}
    if with_split_comparison and max_blocks >= 1000 and len(configs) >= 3:
        series1, series3 = configs[0], configs[2]
        one = _steady_state_tallies(
            used_spec, image_size, range(1000), app=app
        )
        split["one_launch_high_freq"] = sum(t.num_blocks for t in one) / sum(
            time_launch(t, used_spec, dram, series3).time_us for t in one
        )
        quarters = [range(i * 250, (i + 1) * 250) for i in range(4)]
        total_us = 0.0
        total_blocks = 0
        for quarter in quarters:
            tallies = _steady_state_tallies(
                used_spec, image_size, quarter, app=app
            )
            total_us += sum(
                time_launch(t, used_spec, dram, series1).time_us for t in tallies
            )
            total_blocks += sum(t.num_blocks for t in tallies)
        split["split_low_freq"] = total_blocks / total_us
    return Fig3Result(
        grid_sizes=sizes,
        configs=list(configs),
        throughput=throughput,
        split_comparison=split,
    )
