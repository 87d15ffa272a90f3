"""KTILER facade: one object from application graph to schedule (§IV-A).

Wires the whole pipeline together:

1. run the application once under instrumentation (block analyzer
   input);
2. build the block dependency graph and the block memory-lines table;
3. auto-profile every kernel spec (performance tables + edge weights —
   the paper's "user-provided information");
4. run the two-phase scheduler (Algorithms 1 and 2).

Steps 1-3 are frequency-independent (the trace and cache behaviour do
not depend on DVFS state), and so is Algorithm 2's block-level tiling of
a cluster: only its cost changes with the operating point.  One
:class:`KTiler` instance therefore keeps all of them and can produce
schedules for many operating points cheaply — exactly what the Figure 5
experiment needs.  With an artifact store, all of them persist too: a
fresh instance planning a new operating point from a warm store runs
only Algorithm 1, Algorithm 2's cost pass and the schedule check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.analyzer.dependency import build_block_graph
from repro.analyzer.footprint import BlockMemoryLines
from repro.analyzer.instrument import InstrumentedRun, run_instrumented
from repro.core.app_tile import TilingResult, application_tile
from repro.core.cluster_tile import ClusterStructure, tile_structure
from repro.core.fast_cluster import resolve_planner_backend
from repro.core.profiler import (
    DEFAULT_GRID_FRACTIONS,
    KernelProfiler,
    LazyPerfTables,
)
from repro.core.schedule import Schedule
from repro.core.weights import EdgeWeights, compute_edge_weights
from repro.errors import ConfigurationError
from repro.gpusim.arch import GpuSpec
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import GpuSimulator, time_launch
from repro.gpusim.freq import FrequencyConfig, NOMINAL
from repro.graph.block_graph import BlockDependencyGraph
from repro.graph.kernel_graph import KernelGraph
from repro.obs.tracer import NULL_TRACER
from repro.store import NULL_STORE
from repro.store.artifacts import (
    block_graph_from_dict,
    block_graph_key,
    block_graph_to_dict,
    instrumented_run_from_dict,
    instrumented_run_to_dict,
    plan_key,
    structure_from_dict,
    structure_key,
    structure_scope,
    structure_to_dict,
    tiling_result_from_dict,
    tiling_result_to_dict,
    trace_key,
)


@dataclass(frozen=True)
class KTilerConfig:
    """Knobs of the KTILER pipeline.

    ``threshold_us`` is the paper's predefined edge-weight threshold:
    only edges whose weight (time saved, in us) exceeds it become merge
    candidates.  ``launch_overhead_us`` is the per-launch cost charged
    in the scheduler's cost model so that splitting into many
    sub-kernels is only chosen when the cache gains outweigh the extra
    launches (None: use the device's inter-launch gap).
    ``max_cluster_nodes`` (an extension; None = paper-faithful) bounds
    cluster growth to cap scheduling time on deep graphs.
    """

    threshold_us: float = 0.0
    include_anti: bool = True
    launch_overhead_us: Optional[float] = None
    max_cluster_nodes: Optional[int] = None
    grid_fractions: Tuple[float, ...] = DEFAULT_GRID_FRACTIONS


class KTiler:
    """End-to-end KTILER for one application graph on one device."""

    def __init__(
        self,
        graph: KernelGraph,
        spec: Optional[GpuSpec] = None,
        config: Optional[KTilerConfig] = None,
        tracer=NULL_TRACER,
        store=None,
        planner_backend: Optional[str] = None,
    ):
        graph.validate()
        self.graph = graph
        self.spec = spec if spec is not None else GpuSpec()
        self.config = config if config is not None else KTilerConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.planner_backend = resolve_planner_backend(planner_backend)
        self.store = store if store is not None else NULL_STORE
        self.profiler = KernelProfiler(
            self.spec,
            self.config.grid_fractions,
            store=self.store,
            tracer=self.tracer,
        )
        self._run: Optional[InstrumentedRun] = None
        self._block_graph: Optional[BlockDependencyGraph] = None
        self._mem_lines: Optional[BlockMemoryLines] = None
        # Algorithm 2 structures by node set: every plan of this
        # instance shares graph, block graph, lines, L2 size and
        # include_anti, so a cluster tiled at one operating point is
        # only re-costed at the next.
        self._structures: Dict[FrozenSet[int], ClusterStructure] = {}
        self._structure_scope: Optional[str] = None
        self._plans: Dict[FrequencyConfig, TilingResult] = {}

    # ------------------------------------------------------------------
    # Block analyzer artifacts (frequency-independent, computed once)
    # ------------------------------------------------------------------
    @property
    def instrumented_run(self) -> InstrumentedRun:
        if self._run is None:
            key = None
            if self.store.enabled:
                key = self.store.key_for(trace_key(self.graph, self.spec))
                self._run = self.store.get(
                    "trace",
                    key,
                    lambda payload: instrumented_run_from_dict(
                        payload, self.graph, self.spec
                    ),
                )
                if self._run is not None:
                    return self._run
            # The analyzer's simulator stays untraced on purpose: its
            # cache traffic is analysis input, not a measurement, and
            # would pollute the sim.* counters.
            with self.tracer.span("ktiler.instrument", cat="trace"):
                self._run = run_instrumented(self.graph, GpuSimulator(self.spec))
            if key is not None:
                self.store.put(
                    "trace", key, instrumented_run_to_dict(self._run)
                )
        return self._run

    @property
    def block_graph(self) -> BlockDependencyGraph:
        if self._block_graph is None:
            key = None
            if self.store.enabled:
                key = self.store.key_for(
                    block_graph_key(
                        self.graph, self.spec, self.config.include_anti
                    )
                )
                self._block_graph = self.store.get(
                    "blockgraph", key, block_graph_from_dict
                )
                if self._block_graph is not None:
                    return self._block_graph
            with self.tracer.span("ktiler.block_graph", cat="block_graph"):
                self._block_graph = build_block_graph(
                    self.instrumented_run.trace,
                    include_anti=self.config.include_anti,
                )
            if key is not None:
                self.store.put(
                    "blockgraph", key, block_graph_to_dict(self._block_graph)
                )
        return self._block_graph

    @property
    def mem_lines(self) -> BlockMemoryLines:
        if self._mem_lines is None:
            with self.tracer.span("ktiler.mem_lines", cat="block_graph"):
                self._mem_lines = BlockMemoryLines.from_trace(
                    self.instrumented_run.trace,
                    self.graph,
                    self.spec.l2_line_bytes,
                    self.spec.line_shift,
                )
        return self._mem_lines

    def structure(self, nodes: FrozenSet[int]) -> ClusterStructure:
        """Algorithm 2's structure of a node set: memo, store, then computed.

        Only a computed structure needs the block graph and the memory
        lines, so a plan whose every cluster is memoized or stored never
        builds :attr:`mem_lines`.
        """
        structure = self._structures.get(nodes)
        if structure is not None:
            return structure
        key = None
        if self.store.enabled:
            if self._structure_scope is None:
                self._structure_scope = structure_scope(
                    self.graph, self.spec, self.config.include_anti
                )
            key = self.store.key_for(structure_key(self._structure_scope, nodes))

            def decode(payload):
                restored = structure_from_dict(payload, self.graph)
                return restored if restored.nodes == nodes else None

            structure = self.store.get("structure", key, decode)
        if structure is None:
            structure = tile_structure(
                nodes,
                self.graph,
                self.block_graph,
                self.mem_lines,
                self.spec.l2_bytes,
                include_anti=self.config.include_anti,
            )
            if key is not None:
                self.store.put("structure", key, structure_to_dict(structure))
        self._structures[nodes] = structure
        return structure

    # ------------------------------------------------------------------
    # Frequency-dependent artifacts
    # ------------------------------------------------------------------
    def default_times(self, freq: FrequencyConfig = NOMINAL) -> Dict[int, float]:
        """Per-node default-mode execution time at ``freq`` (us).

        Measured in application context (the instrumented run), so each
        kernel's time reflects the cache state the default schedule
        leaves for it — the paper's ``kerExeTimes``.
        """
        dram = DramModel.from_spec(self.spec)
        return {
            node_id: time_launch(launch.tally, self.spec, dram, freq).time_us
            for node_id, launch in zip(
                self.graph.topological_order(), self.instrumented_run.launches
            )
        }

    def edge_weights(self, freq: FrequencyConfig = NOMINAL) -> EdgeWeights:
        return compute_edge_weights(self.graph, self.profiler, freq)

    # ------------------------------------------------------------------
    def default_schedule(self) -> Schedule:
        return Schedule.default(self.graph)

    def plan(self, freq: FrequencyConfig = NOMINAL) -> TilingResult:
        """Produce the KTILER schedule for one operating point.

        Plans are memoized per operating point — the block analyzer
        artifacts are shared and only the cost model changes with
        frequency.
        """
        cached = self._plans.get(freq)
        if cached is not None:
            return cached
        launch_overhead = self.config.launch_overhead_us
        if launch_overhead is None:
            launch_overhead = self.spec.launch_gap_us
        if launch_overhead < 0:
            raise ConfigurationError("launch_overhead_us must be >= 0")
        key = None
        if self.store.enabled:
            key = self.store.key_for(
                plan_key(
                    self.graph, self.spec, self.config, freq,
                    planner_backend=self.planner_backend,
                )
            )
            # Validated before it was stored; the rebuild re-checks the
            # graph fingerprint and node-level coverage only.
            result = self.store.get(
                "plan",
                key,
                lambda payload: tiling_result_from_dict(payload, self.graph),
            )
            if result is not None:
                self._plans[freq] = result
                return result
        with self.tracer.span("ktiler.plan", cat="partition", freq=freq.label):
            result = application_tile(
                graph=self.graph,
                structure_of=self.structure,
                perf_tables=LazyPerfTables(self.profiler, freq),
                weights=self.edge_weights(freq),
                default_times_us=self.default_times(freq),
                threshold_us=self.config.threshold_us,
                launch_overhead_us=launch_overhead,
                max_cluster_nodes=self.config.max_cluster_nodes,
                tracer=self.tracer,
                planner_backend=self.planner_backend,
            )
            result.schedule.validate(
                self.graph, self.block_graph, include_anti=self.config.include_anti
            )
        self._plans[freq] = result
        if key is not None:
            self.store.put(
                "plan", key, tiling_result_to_dict(result, self.graph)
            )
        return result

    def audit(self, freq: FrequencyConfig = NOMINAL):
        """Attributed default-vs-tiled replay joining predictions to outcomes.

        Convenience wrapper over :func:`repro.obs.audit.audit_schedule`;
        returns a :class:`repro.obs.audit.ScheduleAudit`.  Plans first
        if no plan for ``freq`` is memoized yet.
        """
        from repro.obs.audit import audit_schedule

        return audit_schedule(self, freq=freq)

    def _baseline_kwargs(self, freq: FrequencyConfig) -> dict:
        launch_overhead = self.config.launch_overhead_us
        if launch_overhead is None:
            launch_overhead = self.spec.launch_gap_us
        return dict(
            graph=self.graph,
            block_graph=self.block_graph,
            mem_lines=self.mem_lines,
            perf_tables=LazyPerfTables(self.profiler, freq),
            weights=self.edge_weights(freq),
            default_times_us=self.default_times(freq),
            cache_bytes=self.spec.l2_bytes,
            threshold_us=self.config.threshold_us,
            launch_overhead_us=launch_overhead,
            include_anti=self.config.include_anti,
        )

    def plan_merge_all(self, freq: FrequencyConfig = NOMINAL) -> TilingResult:
        """Baseline: contract every valid candidate edge (no cost model)."""
        from repro.core.baselines import merge_all_tile

        result = merge_all_tile(**self._baseline_kwargs(freq))
        result.schedule.validate(
            self.graph, self.block_graph, include_anti=self.config.include_anti
        )
        return result

    def plan_exhaustive(
        self, freq: FrequencyConfig = NOMINAL, max_edges: int = 14
    ) -> TilingResult:
        """Oracle baseline for small graphs (exponential search)."""
        from repro.core.baselines import exhaustive_tile

        result = exhaustive_tile(
            **self._baseline_kwargs(freq), max_edges=max_edges
        )
        result.schedule.validate(
            self.graph, self.block_graph, include_anti=self.config.include_anti
        )
        return result

