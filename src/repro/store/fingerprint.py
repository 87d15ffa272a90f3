"""Canonical fingerprints for artifact-store keys.

An artifact is addressed by the sha256 of a canonical-JSON payload
describing *everything its content depends on*: the kernel specs (name,
type, launch geometry, buffer layout, issue-work parameters), the
:class:`~repro.gpusim.arch.GpuSpec`, the
:class:`~repro.gpusim.freq.FrequencyConfig`, the KTiler configuration
and a store-format version (bumped whenever the pipeline's semantics
change).  Any field change — a different grid, a different L2 size, a
different frequency — therefore produces a different key, and a stale
entry can never be served for a perturbed configuration.

The *planner* backend is part of the plan key (see
:func:`repro.store.artifacts.plan_key`): both planner backends produce
bit-identical schedules, but the plan payload also carries the
validity-family work counters (``planner.merge_probes`` /
``planner.reach_repairs``), which measure the selected backend's own
merge-validity work and legitimately differ between backends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List

from repro.gpusim.arch import GpuSpec
from repro.gpusim.freq import FrequencyConfig
from repro.graph.buffers import Buffer
from repro.graph.kernel_graph import KernelGraph
from repro.kernels.base import KernelSpec

#: Version of the store's key/payload semantics.  Bump on any change to
#: the simulator, scheduler, or profiler that alters computed artifacts.
#: v2: plan artifacts carry planner work counters — v1 entries would
#: deserialize with all-zero work, silently breaking the warm-vs-cold
#: cache invariance of the counters.
#: v3: plan artifacts carry the decision ledger — v2 entries would
#: deserialize with an empty ledger, so warm plans would lose the
#: provenance their cold runs recorded.
STORE_VERSION = 3

#: Attributes of :class:`KernelSpec` handled explicitly (or useless for
#: identity) and therefore excluded from the generic parameter sweep.
_KERNEL_BASE_ATTRS = frozenset(
    ("name", "grid", "block", "inputs", "outputs", "instrs_per_thread", "out")
)


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload) -> str:
    """sha256 hex digest of the canonical-JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _primitive(value):
    """JSON-stable projection of a parameter value, or None to skip."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        items = [_primitive(v) for v in value]
        if all(i is not None or v is None for i, v in zip(items, value)):
            return items
    return None


def buffer_fingerprint(buffer: Buffer) -> Dict:
    return {
        "name": buffer.name,
        "num_elements": buffer.num_elements,
        "itemsize": buffer.itemsize,
        "shape": list(buffer.shape) if buffer.shape else None,
        "base_address": buffer.base_address,
    }


def kernel_fingerprint(kernel: KernelSpec) -> Dict:
    """Identity of a kernel spec: type, geometry, buffers, parameters.

    The generic parameter sweep picks up every primitive attribute a
    subclass sets (stencil radii, scale factors, ...) so two kernels of
    the same class with different behaviour never collide.
    """
    params = {}
    for attr, value in sorted(vars(kernel).items()):
        if attr.startswith("_") or attr in _KERNEL_BASE_ATTRS:
            continue
        value = _primitive(value)
        if value is not None:
            params[attr] = value
    return {
        "type": type(kernel).__qualname__,
        "name": kernel.name,
        "grid": list(kernel.grid),
        "block": list(kernel.block),
        "instrs_per_thread": kernel.instrs_per_thread,
        "block_overhead_instrs": kernel.block_overhead_instrs,
        "inputs": [buffer_fingerprint(b) for b in kernel.inputs],
        "outputs": [buffer_fingerprint(b) for b in kernel.outputs],
        "params": params,
    }


def gpu_fingerprint(spec: GpuSpec) -> Dict:
    """All compared fields of the GpuSpec (``extras`` is advisory)."""
    payload = dataclasses.asdict(spec)
    payload.pop("extras", None)
    return payload


def freq_fingerprint(freq: FrequencyConfig) -> Dict:
    return {"gpu_mhz": freq.gpu_mhz, "mem_mhz": freq.mem_mhz}


def config_fingerprint(config) -> Dict:
    """A KTilerConfig (or any frozen dataclass of primitives)."""
    payload = dataclasses.asdict(config)
    for key, value in payload.items():
        if isinstance(value, tuple):
            payload[key] = list(value)
    return payload


def graph_fingerprint(graph: KernelGraph) -> Dict:
    """Structural identity of an application graph.

    Kernel fingerprints are interned (nodes sharing a spec reference
    one entry) so the thousand-node HSOpticalFlow graph hashes in
    milliseconds and the payload stays compact.
    """
    kernel_ids: Dict[int, int] = {}
    kernels: List[Dict] = []
    nodes: List[Dict] = []
    for node in graph:
        index = kernel_ids.get(id(node.kernel))
        if index is None:
            index = len(kernels)
            kernel_ids[id(node.kernel)] = index
            kernels.append(kernel_fingerprint(node.kernel))
        nodes.append({"name": node.name, "kernel": index})
    edges = sorted(
        (e.src, e.dst, e.buffer.name, e.kind.name) for e in graph.edges
    )
    return {
        "name": graph.name,
        "kernels": kernels,
        "nodes": nodes,
        "edges": [list(e) for e in edges],
    }
