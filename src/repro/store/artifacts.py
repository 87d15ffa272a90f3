"""Codecs between pipeline artifacts and store payloads.

Each artifact *kind* pairs a key-payload builder (``*_key``) with a
to/from-dict codec.  Keys are canonical fingerprints (see
:mod:`repro.store.fingerprint`); payloads reuse the stable schedule
serialization of :mod:`repro.core.serialize` wherever a schedule is
embedded, so tiled schedules in the store read the same as schedules
saved explicitly.

Compactness choices that keep paper-scale entries reviewable:

* traces store only ``(node, block-range)`` runs — a restored record,
  like a recorded one, derives its line sets from the kernel's
  memoized access pattern when they are first read;
* block graphs store the per-block adjacency in trace order, so the
  rebuilt :class:`~repro.graph.block_graph.BlockDependencyGraph` is
  structurally identical (same insertion order, same consumer lists);
* block-id sequences use the run-length encoding of
  :mod:`repro.core.serialize`;
* Algorithm 2 structures store each step's events and sub-kernel block
  runs; kernels and input combinations are re-derived from the graph.

Decoders raise (or return None) on a payload that does not fit; the
store turns either into a counted, warned miss
(:meth:`~repro.store.store.ArtifactStore.get`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyzer.instrument import InstrumentedRun
from repro.core.app_tile import TilingResult, TilingStats
from repro.core.cluster import Partition
from repro.core.cluster_tile import (
    ClusterStructure,
    ClusterTiling,
    DroppedBatch,
    FrozenRound,
    in_cluster_input_combo,
)
from repro.core.perftable import InputCombo
from repro.core.serialize import (
    _decode_blocks,
    _encode_blocks,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.schedule import Schedule
from repro.core.subkernel import SubKernel
from repro.core.work import PlannerWork
from repro.gpusim.arch import GpuSpec
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import LaunchResult, LaunchTally, time_launch
from repro.gpusim.freq import NOMINAL, FrequencyConfig
from repro.gpusim.trace import BlockTraceRecord, MemoryTrace
from repro.graph.block_graph import BlockDependencyGraph
from repro.graph.kernel_graph import KernelGraph
from repro.kernels.base import KernelSpec
from repro.obs.decisions import DecisionLedger
from repro.store.fingerprint import (
    config_fingerprint,
    content_key,
    freq_fingerprint,
    gpu_fingerprint,
    graph_fingerprint,
    kernel_fingerprint,
)


# ----------------------------------------------------------------------
# LaunchTally
# ----------------------------------------------------------------------
def tally_to_dict(tally: LaunchTally) -> Dict:
    return dataclasses.asdict(tally)


def tally_from_dict(payload: Dict) -> LaunchTally:
    return LaunchTally(
        kernel_name=payload["kernel_name"],
        num_blocks=payload["num_blocks"],
        threads_per_block=payload["threads_per_block"],
        resident_warps=payload["resident_warps"],
        per_sm_issue=[float(v) for v in payload["per_sm_issue"]],
        per_sm_hits=[int(v) for v in payload["per_sm_hits"]],
        per_sm_misses=[int(v) for v in payload["per_sm_misses"]],
        line_bytes=payload["line_bytes"],
    )


# ----------------------------------------------------------------------
# Profiler entries (the perf-table backing data)
# ----------------------------------------------------------------------
def profile_key(
    kernel: KernelSpec,
    spec: GpuSpec,
    grid_fractions: Sequence[float],
    combo: InputCombo,
) -> Dict:
    return {
        "artifact": "profile",
        "kernel": kernel_fingerprint(kernel),
        "gpu": gpu_fingerprint(spec),
        "grid_fractions": [float(f) for f in grid_fractions],
        "combo": sorted(combo),
        # Entries hold each grid's warm-set size beside its tally.
        "warm_lines": True,
    }


def profile_to_dict(
    tallies: Dict[int, LaunchTally], warm_lines: Dict[int, int]
) -> Dict:
    return {
        "grids": [
            [grid, tally_to_dict(tally), warm_lines[grid]]
            for grid, tally in sorted(tallies.items())
        ]
    }


def profile_from_dict(
    payload: Dict,
) -> Tuple[Dict[int, LaunchTally], Dict[int, int]]:
    """``(tallies, warm_lines)`` by grid size."""
    tallies: Dict[int, LaunchTally] = {}
    warm_lines: Dict[int, int] = {}
    for grid, entry, lines in payload["grids"]:
        tallies[int(grid)] = tally_from_dict(entry)
        warm_lines[int(grid)] = int(lines)
    return tallies, warm_lines


# ----------------------------------------------------------------------
# Instrumented traces
# ----------------------------------------------------------------------
def trace_key(graph: KernelGraph, spec: GpuSpec) -> Dict:
    return {
        "artifact": "trace",
        "graph": graph_fingerprint(graph),
        "gpu": gpu_fingerprint(spec),
    }


def instrumented_run_to_dict(run: InstrumentedRun) -> Dict:
    launches: List[Dict] = []
    records = list(run.trace)
    cursor = 0
    for result in run.launches:
        # The recorder appends one record per executed block, launches
        # in execution order; recover each launch's slice by length.
        count = result.tally.num_blocks
        chunk = records[cursor : cursor + count]
        cursor += count
        launches.append(
            {
                "node": chunk[0].node_id if chunk else None,
                "blocks": _encode_blocks([r.block_id for r in chunk]),
                "tally": tally_to_dict(result.tally),
            }
        )
    return {"launches": launches, "total_blocks": run.trace.total_blocks}


def instrumented_run_from_dict(
    payload: Dict,
    graph: KernelGraph,
    spec: GpuSpec,
    freq: FrequencyConfig = NOMINAL,
) -> Optional[InstrumentedRun]:
    """Rebuild a trace from block ids; line sets derive when read.

    Returns None when the payload does not line up with the graph (a
    stale or hand-edited entry) — the caller recomputes.
    """
    node_ids = graph.topological_order()
    if len(payload["launches"]) != len(node_ids):
        return None
    dram = DramModel.from_spec(spec)
    line_shift = spec.line_shift
    trace = MemoryTrace()
    launches: List[LaunchResult] = []
    for node_id, entry in zip(node_ids, payload["launches"]):
        if entry["node"] != node_id:
            return None
        kernel = graph.node(node_id).kernel
        blocks = _decode_blocks(entry["blocks"])
        if blocks and not 0 <= min(blocks) <= max(blocks) < kernel.num_blocks:
            return None
        for bid in blocks:
            trace.append(BlockTraceRecord(node_id, kernel, bid, line_shift))
        tally = tally_from_dict(entry["tally"])
        launches.append(
            LaunchResult(
                tally=tally,
                timing=time_launch(tally, spec, dram, freq),
                freq=freq,
            )
        )
    if trace.total_blocks != payload["total_blocks"]:
        return None
    return InstrumentedRun(trace=trace, launches=launches)


# ----------------------------------------------------------------------
# Block dependency graphs
# ----------------------------------------------------------------------
def block_graph_key(
    graph: KernelGraph, spec: GpuSpec, include_anti: bool
) -> Dict:
    return {
        "artifact": "blockgraph",
        "graph": graph_fingerprint(graph),
        "gpu": gpu_fingerprint(spec),
        "include_anti": bool(include_anti),
    }


def block_graph_to_dict(block_graph: BlockDependencyGraph) -> Dict:
    blocks = [
        [
            key[0],
            key[1],
            [list(p) for p in block_graph.producers(key)],
            [list(a) for a in block_graph.anti_producers(key)],
        ]
        for key in block_graph
    ]
    return {"blocks": blocks}


def block_graph_from_dict(payload: Dict) -> BlockDependencyGraph:
    rebuilt = BlockDependencyGraph()
    for node, bid, producers, anti in payload["blocks"]:
        rebuilt.add_block(
            (node, bid),
            [tuple(p) for p in producers],
            [tuple(a) for a in anti],
        )
    return rebuilt


# ----------------------------------------------------------------------
# Tiled schedules (full TilingResult)
# ----------------------------------------------------------------------
def plan_key(
    graph: KernelGraph,
    spec: GpuSpec,
    config,
    freq: FrequencyConfig,
    planner_backend: str = "reference",
) -> Dict:
    """Store key of one plan artifact.

    ``planner_backend`` is part of the key: schedules are
    bit-identical across planner backends by contract,
    but the validity-family work counters the plan payload carries
    (``planner.merge_probes`` / ``planner.reach_repairs``) are
    planner-backend-local, so the two backends must not share warm plan
    entries.
    """
    return {
        "artifact": "plan",
        "graph": graph_fingerprint(graph),
        "gpu": gpu_fingerprint(spec),
        "config": config_fingerprint(config),
        "freq": freq_fingerprint(freq),
        "planner_backend": planner_backend,
    }


def _subkernel_to_dict(sub: SubKernel) -> Dict:
    return {
        "node": sub.node_id,
        "label": sub.label,
        "blocks": _encode_blocks(sub.blocks),
    }


def _subkernel_from_dict(entry: Dict) -> SubKernel:
    return SubKernel(
        node_id=entry["node"],
        blocks=tuple(_decode_blocks(entry["blocks"])),
        label=entry.get("label", ""),
    )


def tiling_result_to_dict(result: TilingResult, graph: KernelGraph) -> Dict:
    return {
        "schedule": schedule_to_dict(result.schedule, graph),
        "partition": [
            sorted(result.partition.members(cid))
            for cid in result.partition.cluster_ids()
        ],
        "tilings": [
            [
                cid,
                {
                    "nodes": sorted(tiling.nodes),
                    "subkernels": [
                        _subkernel_to_dict(s) for s in tiling.subkernels
                    ],
                    "cost_us": tiling.cost_us,
                    "rounds": tiling.rounds,
                    "work": tiling.work.as_dict(),
                },
            ]
            for cid, tiling in sorted(result.tilings.items())
        ],
        "estimated_cost_us": result.estimated_cost_us,
        "stats": dataclasses.asdict(result.stats),
        "ledger": result.ledger.as_dict(),
    }


def partition_from_members(
    graph: KernelGraph, members_lists: Sequence[Sequence[int]]
) -> Partition:
    """Rebuild a partition from member sets; quotient from graph edges.

    Produces exactly the state the incremental merges maintain (the
    invariant :meth:`Partition.validate_against` checks).
    """
    clusters = {min(m): frozenset(m) for m in members_lists}
    of = {node: cid for cid, members in clusters.items() for node in members}
    qadj = {cid: set() for cid in clusters}
    qradj = {cid: set() for cid in clusters}
    for edge in graph.edges:
        src, dst = of[edge.src], of[edge.dst]
        if src != dst:
            qadj[src].add(dst)
            qradj[dst].add(src)
    return Partition(clusters, of, qadj, qradj)


def tiling_result_from_dict(payload: Dict, graph: KernelGraph) -> TilingResult:
    """Rebuild a TilingResult; raises when it does not fit the graph.

    Schedule/graph mismatches raise ScheduleError/GraphError, a payload
    without a (valid) ledger KeyError/ValueError: the store reads any of
    them as a miss, so the caller recomputes and the warm plan regains
    its provenance.
    """
    schedule = schedule_from_dict(payload["schedule"], graph)
    partition = partition_from_members(graph, payload["partition"])
    tilings = {
        int(cid): ClusterTiling(
            nodes=frozenset(entry["nodes"]),
            subkernels=tuple(
                _subkernel_from_dict(s) for s in entry["subkernels"]
            ),
            cost_us=float(entry["cost_us"]),
            rounds=int(entry["rounds"]),
            work=PlannerWork.from_dict(entry.get("work", {})),
        )
        for cid, entry in payload["tilings"]
    }
    stats_payload = dict(payload["stats"])
    stats_work = PlannerWork.from_dict(stats_payload.pop("work", {}))
    stats = TilingStats(work=stats_work, **stats_payload)
    return TilingResult(
        schedule=schedule,
        partition=partition,
        tilings=tilings,
        estimated_cost_us=float(payload["estimated_cost_us"]),
        stats=stats,
        ledger=DecisionLedger.from_dict(payload["ledger"]),
    )


# ----------------------------------------------------------------------
# Algorithm 2 structures
# ----------------------------------------------------------------------
def structure_scope(graph: KernelGraph, spec: GpuSpec, include_anti: bool) -> str:
    """Digest of what every structure of one graph and device shares.

    A structure depends on the graph, the GPU (the L2 and line sizes,
    through the trace) and the dependency variant besides its node
    set; hashing them once keeps each node set's key small.
    """
    return content_key(
        {
            "artifact": "structure",
            "graph": graph_fingerprint(graph),
            "gpu": gpu_fingerprint(spec),
            "include_anti": bool(include_anti),
        }
    )


def structure_key(scope: str, nodes) -> Dict:
    return {"artifact": "structure", "scope": scope, "nodes": sorted(nodes)}


def structure_to_dict(structure: ClusterStructure) -> Dict:
    steps: List = []
    for step in structure.steps:
        if isinstance(step, DroppedBatch):
            steps.append(["drop", step.round, step.blocks, step.footprint_bytes])
        else:
            steps.append(
                [
                    "round",
                    step.event,
                    [
                        [sub.node_id, sub.label, _encode_blocks(sub.blocks)]
                        for sub, _, _ in step.launches
                    ],
                ]
            )
    return {
        "nodes": sorted(structure.nodes),
        "label": structure.label,
        "cache_bytes": structure.cache_bytes,
        "tileable": structure.tileable,
        "work": [list(item) for item in structure.work],
        "steps": steps,
    }


def structure_from_dict(payload: Dict, graph: KernelGraph) -> ClusterStructure:
    """Rebuild a structure equal (``==``) to the one that was stored.

    Each launch's kernel spec and in-cluster input combination come
    from the graph, as :func:`~repro.core.cluster_tile.tile_structure`
    derives them.
    """
    nodes = frozenset(payload["nodes"])
    kernel_and_combo = {
        v: (graph.node(v).kernel, in_cluster_input_combo(graph, v, nodes))
        for v in nodes
    }
    steps: List = []
    for step in payload["steps"]:
        kind = step[0]
        if kind == "drop":
            _, round_, blocks, footprint_bytes = step
            steps.append(DroppedBatch(int(round_), int(blocks), int(footprint_bytes)))
        elif kind == "round":
            _, event, launches = step
            steps.append(
                FrozenRound(
                    dict(event),
                    tuple(
                        (
                            SubKernel(
                                node_id=v,
                                blocks=tuple(_decode_blocks(runs)),
                                label=label,
                            ),
                            *kernel_and_combo[v],
                        )
                        for v, label, runs in launches
                    ),
                )
            )
        else:
            raise ValueError(f"unknown structure step {kind!r}")
    return ClusterStructure(
        nodes=nodes,
        label=str(payload["label"]),
        cache_bytes=int(payload["cache_bytes"]),
        steps=tuple(steps),
        tileable=bool(payload["tileable"]),
        work=tuple((str(name), int(value)) for name, value in payload["work"]),
    )


# ----------------------------------------------------------------------
# Schedule replays
# ----------------------------------------------------------------------
def replay_key(
    graph: KernelGraph, spec: GpuSpec, schedule: Schedule
) -> Dict:
    return {
        "artifact": "replay",
        "graph": graph_fingerprint(graph),
        "gpu": gpu_fingerprint(spec),
        "schedule": schedule_to_dict(schedule),
    }


def schedule_tallies_to_dict(replay) -> Dict:
    return {
        "schedule_name": replay.schedule_name,
        "labels": list(replay.labels),
        "tallies": [tally_to_dict(t) for t in replay.tallies],
    }


def schedule_tallies_from_dict(payload: Dict):
    # Imported here: repro.runtime.__init__ pulls in report, which
    # imports core.ktiler, which imports this module.
    from repro.runtime.launcher import ScheduleTallies

    return ScheduleTallies(
        schedule_name=payload["schedule_name"],
        labels=list(payload["labels"]),
        tallies=[tally_from_dict(t) for t in payload["tallies"]],
    )
