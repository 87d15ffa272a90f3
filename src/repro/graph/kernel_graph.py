"""The application graph (kernel DAG).

The paper models a GPU application as a graph whose nodes are kernels
and whose edges capture data dependencies.  We build the graph from
*program order*: kernels are added in the order the host would launch
them, and edges are inferred from the buffers each kernel reads and
writes, exactly like CUDA stream semantics:

* a **data** (read-after-write) edge runs from the latest earlier
  writer of a buffer to each later reader;
* **anti** (write-after-read / write-after-write) edges serialize a
  writer behind earlier readers and the earlier writer of the same
  buffer.  The paper's dependency definition only covers RAW, but
  anti edges are required for functional correctness with the
  ping-pong buffer reuse in HSOpticalFlow, so we track them with a
  distinct kind (they carry no cache benefit and weight zero).

Node insertion order is therefore always a valid topological order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graph.buffers import Buffer
from repro.kernels.base import KernelSpec


class EdgeKind(enum.Enum):
    DATA = "data"
    ANTI = "anti"


@dataclass(frozen=True)
class Edge:
    """A dependency edge: ``dst`` must run after ``src``."""

    src: int
    dst: int
    buffer: Buffer
    kind: EdgeKind = EdgeKind.DATA

    @property
    def is_data(self) -> bool:
        return self.kind is EdgeKind.DATA


@dataclass
class KernelNode:
    """One kernel instance in the application graph."""

    node_id: int
    name: str
    kernel: KernelSpec
    tileable: bool = True
    step: Optional[int] = None
    tags: dict = field(default_factory=dict)

    @property
    def num_blocks(self) -> int:
        return self.kernel.num_blocks

    def __repr__(self) -> str:
        return f"KernelNode({self.node_id}, {self.name!r})"


class KernelGraph:
    """An application DAG built in launch (program) order."""

    def __init__(self, name: str = "app"):
        self.name = name
        self.nodes: List[KernelNode] = []
        self.edges: List[Edge] = []
        self._out: Dict[int, List[Edge]] = {}
        self._in: Dict[int, List[Edge]] = {}
        self._last_writer: Dict[str, int] = {}
        self._readers_since_write: Dict[str, List[int]] = {}
        self._descendants_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        kernel: KernelSpec,
        name: Optional[str] = None,
        tileable: bool = True,
        step: Optional[int] = None,
        **tags,
    ) -> int:
        """Append a kernel launch; infers edges from its buffers."""
        node_id = len(self.nodes)
        node = KernelNode(
            node_id=node_id,
            name=name if name is not None else f"{kernel.name}.{node_id}",
            kernel=kernel,
            tileable=tileable,
            step=step,
            tags=tags,
        )
        out_names = {b.name for b in kernel.outputs}
        unique_inputs = list(dict.fromkeys(kernel.inputs))
        for buf in unique_inputs:
            if buf.name in out_names:
                raise GraphError(
                    f"node '{node.name}': buffer '{buf.name}' is both input "
                    "and output (in-place kernels are not supported)"
                )
            writer = self._last_writer.get(buf.name)
            if writer is not None:
                self._add_edge(Edge(writer, node_id, buf, EdgeKind.DATA))
            self._readers_since_write.setdefault(buf.name, []).append(node_id)
        for buf in kernel.outputs:
            for reader in self._readers_since_write.get(buf.name, ()):
                if reader != node_id:
                    self._add_edge(Edge(reader, node_id, buf, EdgeKind.ANTI))
            prev_writer = self._last_writer.get(buf.name)
            if prev_writer is not None and not self._has_edge(prev_writer, node_id):
                self._add_edge(Edge(prev_writer, node_id, buf, EdgeKind.ANTI))
            self._last_writer[buf.name] = node_id
            self._readers_since_write[buf.name] = []
        self.nodes.append(node)
        self._descendants_cache = None
        return node_id

    def _add_edge(self, edge: Edge) -> None:
        if edge.src == edge.dst:
            raise GraphError(f"self edge on node {edge.src}")
        if edge.src >= len(self.nodes):
            raise GraphError(f"edge source {edge.src} does not exist")
        self.edges.append(edge)
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)

    def _has_edge(self, src: int, dst: int) -> bool:
        return any(e.dst == dst for e in self._out.get(src, ()))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[KernelNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> KernelNode:
        # One comparison: a negative id would index from the list's end.
        if node_id >= 0:
            try:
                return self.nodes[node_id]
            except IndexError:
                pass
        raise GraphError(f"unknown node id {node_id}")

    def node_by_name(self, name: str) -> KernelNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"no node named '{name}'")

    def edges_out(self, node_id: int, data_only: bool = False) -> List[Edge]:
        edges = self._out.get(node_id, [])
        return [e for e in edges if e.is_data] if data_only else list(edges)

    def edges_in(self, node_id: int, data_only: bool = False) -> List[Edge]:
        edges = self._in.get(node_id, [])
        return [e for e in edges if e.is_data] if data_only else list(edges)

    def data_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.is_data]

    def successors(self, node_id: int, data_only: bool = False) -> List[int]:
        seen: Set[int] = set()
        out = []
        for e in self.edges_out(node_id, data_only):
            if e.dst not in seen:
                seen.add(e.dst)
                out.append(e.dst)
        return out

    def predecessors(self, node_id: int, data_only: bool = False) -> List[int]:
        seen: Set[int] = set()
        out = []
        for e in self.edges_in(node_id, data_only):
            if e.src not in seen:
                seen.add(e.src)
                out.append(e.src)
        return out

    def topological_order(self) -> List[int]:
        """Node ids in a valid execution order (insertion order)."""
        return list(range(len(self.nodes)))

    def total_blocks(self) -> int:
        return sum(node.num_blocks for node in self.nodes)

    def nodes_by_kernel_name(self, kernel_name: str) -> List[KernelNode]:
        return [n for n in self.nodes if n.kernel.name == kernel_name]

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def _descendants(self) -> List[int]:
        """Per-node descendant bitmask over all edge kinds."""
        if self._descendants_cache is None:
            masks = [0] * len(self.nodes)
            for node_id in range(len(self.nodes) - 1, -1, -1):
                mask = 0
                for edge in self._out.get(node_id, ()):
                    mask |= (1 << edge.dst) | masks[edge.dst]
                masks[node_id] = mask
            self._descendants_cache = masks
        return self._descendants_cache

    def reaches(self, src: int, dst: int) -> bool:
        """True if a (any-kind) dependency path runs from src to dst."""
        return bool(self._descendants()[src] >> dst & 1)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`."""
        for edge in self.edges:
            if edge.src >= edge.dst:
                raise GraphError(
                    f"edge {edge.src}->{edge.dst} violates insertion order "
                    "(graph is not a DAG in program order)"
                )
        for node in self.nodes:
            for buf in (*node.kernel.inputs, *node.kernel.outputs):
                if not buf.allocated:
                    raise GraphError(
                        f"node '{node.name}' uses unallocated buffer '{buf.name}'"
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def kernel_name_histogram(self) -> Dict[str, int]:
        """Node count per kernel name (Figure 4 shape check)."""
        hist: Dict[str, int] = {}
        for node in self.nodes:
            hist[node.kernel.name] = hist.get(node.kernel.name, 0) + 1
        return hist

    def summary(self) -> str:
        hist = self.kernel_name_histogram()
        parts = ", ".join(f"{k}x{v}" for k, v in sorted(hist.items()))
        return (
            f"KernelGraph '{self.name}': {len(self.nodes)} nodes "
            f"({parts}), {len(self.data_edges())} data edges, "
            f"{len(self.edges) - len(self.data_edges())} anti edges"
        )
