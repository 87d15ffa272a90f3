"""Block memory lines and memory footprints (§IV-B2, §IV-C2).

The scheduler's cache constraint uses the *memory footprint* of the
blocks in a tiling round — the number of distinct cache lines they
touch — as a proxy for cache performance: if the footprint fits the L2,
the round's intermediate data can all be cache-resident (the paper
argues conflict misses are largely avoided because discontiguities are
fewer than the associativity).

:class:`BlockMemoryLines` is the per-block line table the block
analyzer hands to the scheduler; the ClusterTile heuristic
(:mod:`repro.core.cluster_tile`) unions these sets round by round to
check its cache constraint.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import GraphError
from repro.gpusim.trace import BlockKey, MemoryTrace
from repro.graph.kernel_graph import KernelGraph


class BlockMemoryLines:
    """Per-block sets of touched cache lines."""

    def __init__(self, line_bytes: int):
        self.line_bytes = line_bytes
        self._lines: Dict[BlockKey, frozenset] = {}

    @classmethod
    def from_trace(
        cls, trace: MemoryTrace, graph: KernelGraph, line_bytes: int, line_shift: int
    ) -> "BlockMemoryLines":
        """Build the table from a traced run.

        Touched-line sets are shared with the kernel specs' memoized
        sets, so graphs with hundreds of nodes per spec stay cheap.
        """
        table = cls(line_bytes)
        for record in trace:
            kernel = graph.node(record.node_id).kernel
            table._lines[record.key] = kernel.block_touched_lines(
                record.block_id, line_shift
            )
        return table

    def lines_of(self, key: BlockKey) -> frozenset:
        try:
            return self._lines[key]
        except KeyError:
            raise GraphError(f"no memory lines recorded for block {key}") from None

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def footprint_lines(self, keys: Iterable[BlockKey]) -> int:
        """Distinct line count of a set of blocks."""
        union: set = set()
        for key in keys:
            union |= self.lines_of(key)
        return len(union)

    def footprint_bytes(self, keys: Iterable[BlockKey]) -> int:
        return self.footprint_lines(keys) * self.line_bytes
