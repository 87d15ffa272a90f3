"""Figure 2: profiler metrics at the default grid vs. a 1/32 sub-kernel.

The paper profiles the Jacobi kernel of HSOpticalFlow twice with the
NVIDIA profiler: at the application's default grid size, and as a
sub-kernel of 1/32 the default size whose inputs were just produced
(the tiling scenario).  The counters — L2 hit rate, warp issue
efficiency, and the issue-stall-reason split — show why tiling works:
hit rate 35% -> 100%, issue efficiency roughly doubles, and memory
dependency stalls drop from 64% of stalls to 21%.

This module reproduces the experiment on the simulator.  The *default*
measurement launches a Jacobi sweep over the full grid right after its
producer sweep, exactly as the application would.  The *tiled*
measurement launches the producer only over the dependency cone of the
first 1/32 of the consumer's blocks, then profiles that consumer
sub-kernel — the cache state a KTILER round produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analyzer import build_block_graph, run_instrumented
from repro.apps.synthetic import build_jacobi_pingpong
from repro.gpusim import GpuSimulator, GpuSpec, KernelProfile, NOMINAL
from repro.gpusim.freq import FrequencyConfig
from repro.obs.tracer import NULL_TRACER


@dataclass
class Fig2Result:
    """The two profiles plus the paper's headline deltas."""

    default: KernelProfile
    tiled: KernelProfile

    @property
    def hit_rate_gap(self) -> float:
        return self.tiled.cache_hit_rate - self.default.cache_hit_rate

    @property
    def issue_efficiency_ratio(self) -> float:
        if self.default.warp_issue_efficiency == 0:
            return float("inf")
        return self.tiled.warp_issue_efficiency / self.default.warp_issue_efficiency

    @property
    def memory_stall_drop(self) -> float:
        return (
            self.default.memory_stall_fraction - self.tiled.memory_stall_fraction
        )

    def format_table(self) -> str:
        lines = [
            "Figure 2: Jacobi kernel profile, default grid vs 1/32 sub-kernel",
            f"  {'':<12}{'hit rate':>10}{'issue eff':>11}{'mem stalls':>12}{'blocks':>8}",
        ]
        for label, p in (("default", self.default), ("tiled", self.tiled)):
            lines.append(
                f"  {label:<12}{p.cache_hit_rate * 100:9.1f}%"
                f"{p.warp_issue_efficiency * 100:10.1f}%"
                f"{p.memory_stall_fraction * 100:11.1f}%"
                f"{p.num_blocks:8d}"
            )
        lines.append(
            f"  gap: hit {self.hit_rate_gap * 100:+.1f} pts, "
            f"issue efficiency x{self.issue_efficiency_ratio:.2f}, "
            f"memory stalls {self.memory_stall_drop * 100:+.1f} pts"
        )
        return "\n".join(lines)


def run_fig2(
    image_size: int = 512,
    spec: Optional[GpuSpec] = None,
    freq: FrequencyConfig = NOMINAL,
    tiling_fraction: int = 32,
    tracer=NULL_TRACER,
    store=None,
) -> Fig2Result:
    """Reproduce the Figure 2 experiment.

    ``image_size`` controls the Jacobi working set; at 512x512 the
    seven fields total ~7 MB against the default 2 MB L2, the same
    thrashing regime as the paper's configuration.  ``store`` (an
    :class:`repro.store.ArtifactStore`) caches the analyzer step — the
    instrumented trace and block graph — so a repeated run skips the
    dependency extraction entirely.
    """
    from repro.store import NULL_STORE
    from repro.store.artifacts import (
        block_graph_from_dict,
        block_graph_key,
        block_graph_to_dict,
        instrumented_run_from_dict,
        instrumented_run_to_dict,
        trace_key,
    )

    used_spec = spec if spec is not None else GpuSpec()
    store = store if store is not None else NULL_STORE
    app = build_jacobi_pingpong(iters=2, size=image_size)
    graph = app.graph
    producer = graph.node_by_name("JI.0")
    consumer = graph.node_by_name("JI.1")

    # Block dependencies, for the tiled measurement's producer cone.
    block_graph = None
    bg_key = None
    if store.enabled:
        bg_key = store.key_for(block_graph_key(graph, used_spec, True))
        block_graph = store.get("blockgraph", bg_key, block_graph_from_dict)
    if block_graph is None:
        with tracer.span("fig2.analyze", cat="trace"):
            run = None
            t_key = None
            if store.enabled:
                t_key = store.key_for(trace_key(graph, used_spec))
                run = store.get(
                    "trace",
                    t_key,
                    lambda payload: instrumented_run_from_dict(
                        payload, graph, used_spec
                    ),
                )
            if run is None:
                run = run_instrumented(
                    graph, GpuSimulator(used_spec)
                )
                if t_key is not None:
                    store.put("trace", t_key, instrumented_run_to_dict(run))
            block_graph = build_block_graph(run.trace)
        if bg_key is not None:
            store.put("blockgraph", bg_key, block_graph_to_dict(block_graph))

    # --- default mode: producer full grid, then profile the consumer.
    with tracer.span("fig2.default", cat="replay"):
        sim = GpuSimulator(used_spec, freq, tracer=tracer)
        for node in graph:
            if node.node_id == consumer.node_id:
                break
            sim.launch(node.kernel)
        default_profile = KernelProfile.from_result(sim.launch(consumer.kernel))

    # --- tiled mode: the first 1/32 of the consumer, fed by exactly its
    # producer cone (what a KTILER tiling round would have just run).
    sub_blocks = list(range(max(1, consumer.kernel.num_blocks // tiling_fraction)))
    cone = block_graph.transitive_producers(
        [(consumer.node_id, bid) for bid in sub_blocks]
    )
    with tracer.span("fig2.tiled", cat="replay"):
        sim = GpuSimulator(used_spec, freq, tracer=tracer)
        for node in graph:
            if node.node_id == consumer.node_id:
                break
            node_cone = sorted(b for (n, b) in cone if n == node.node_id)
            if node_cone:
                sim.launch(node.kernel, node_cone)
        tiled_profile = KernelProfile.from_result(
            sim.launch(consumer.kernel, sub_blocks)
        )

    if tracer.enabled:
        tracer.metrics.set_gauge(
            "fig2.l2_hit_rate", default_profile.cache_hit_rate, mode="default"
        )
        tracer.metrics.set_gauge(
            "fig2.l2_hit_rate", tiled_profile.cache_hit_rate, mode="tiled"
        )

    return Fig2Result(default=default_profile, tiled=tiled_profile)
