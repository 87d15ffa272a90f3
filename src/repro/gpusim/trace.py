"""Memory trace recording (the SASSI substitute).

The paper instruments the application with SASSI to obtain, for every
thread, the effective address, access type, target memory space and
width of each memory instruction, then post-processes the trace on the
host.  Here the "instrumented binary" is the kernel's access-pattern
generator: during a traced run, the launch simulator hands every
executed block to a :class:`TraceRecorder`, which records the block;
its unique read/written cache lines derive from the kernel's memoized
access pattern when the block analyzer reads them.

A :class:`MemoryTrace` is the post-processable artifact: an ordered
list of :class:`BlockTraceRecord` entries (execution order), exactly
the information the paper's block analyzer consumes (block dependency
relation + block memory lines).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.kernels.base import KernelSpec

#: A block is globally identified by (graph node id, block id).
BlockKey = Tuple[int, int]


class BlockTraceRecord(NamedTuple):
    """One executed block: its node, kernel spec, block id and line shift.

    The unique lines the block reads and writes are the kernel's
    memoized line sets (:meth:`~repro.kernels.base.KernelSpec.block_line_sets`),
    derived when first read.  The recorder and the artifact-store
    decoder build the same record, so a restored trace costs one small
    tuple per block until the block analyzer reads its lines.
    """

    node_id: int
    kernel: "KernelSpec"
    block_id: int
    line_shift: int

    @property
    def kernel_name(self) -> str:
        return self.kernel.name

    @property
    def key(self) -> BlockKey:
        return (self.node_id, self.block_id)

    @property
    def read_lines(self) -> FrozenSet[int]:
        return self.kernel.block_line_sets(self.block_id, self.line_shift)[0]

    @property
    def written_lines(self) -> FrozenSet[int]:
        return self.kernel.block_line_sets(self.block_id, self.line_shift)[1]

    @property
    def touched_lines(self) -> FrozenSet[int]:
        return self.kernel.block_touched_lines(self.block_id, self.line_shift)


class MemoryTrace:
    """An ordered collection of block trace records."""

    def __init__(self) -> None:
        self._records: List[BlockTraceRecord] = []
        self._node_blocks: Dict[int, List[int]] = {}

    def append(self, record: BlockTraceRecord) -> None:
        self._records.append(record)
        self._node_blocks.setdefault(record.node_id, []).append(record.block_id)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BlockTraceRecord]:
        return iter(self._records)

    def records_for_node(self, node_id: int) -> List[BlockTraceRecord]:
        return [r for r in self._records if r.node_id == node_id]

    def node_ids(self) -> List[int]:
        return list(self._node_blocks)

    def blocks_of_node(self, node_id: int) -> List[int]:
        return list(self._node_blocks.get(node_id, []))

    @property
    def total_blocks(self) -> int:
        return len(self._records)


class TraceRecorder:
    """Collects a :class:`MemoryTrace` during simulated execution.

    Usage: call :meth:`begin_launch` before each traced launch, then the
    simulator calls :meth:`record_block` per executed block.
    """

    def __init__(self) -> None:
        self.trace = MemoryTrace()
        self._node_id: Optional[int] = None

    def begin_launch(self, node_id: int) -> None:
        self._node_id = node_id

    def record_block(self, kernel, block_id: int, line_shift: int) -> None:
        if self._node_id is None:
            raise SimulationError(
                "TraceRecorder.record_block called before begin_launch"
            )
        self.trace.append(
            BlockTraceRecord(self._node_id, kernel, block_id, line_shift)
        )

    def record_copy(self, node_id: int, kernel, line_shift: int) -> None:
        """Record all blocks of a copy pseudo-kernel (HtD/DtH nodes)."""
        self.begin_launch(node_id)
        for bid in kernel.all_block_ids():
            self.record_block(kernel, bid, line_shift)
