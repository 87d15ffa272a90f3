"""Kernel abstraction.

A :class:`KernelSpec` plays the role of a compiled CUDA kernel in this
reproduction.  It carries:

* launch geometry — a 2D grid of 2D thread blocks (1D kernels use a
  ``(n, 1)`` grid);
* a *block access pattern* — :meth:`KernelSpec.block_accesses` returns
  the element ranges a given block reads and writes, which the tracer
  turns into the memory trace (the SASSI substitute);
* an optional *functional body* — :meth:`KernelSpec.run_block` applies
  the block's computation to numpy arrays, which lets the test suite
  check that a tiled schedule computes exactly what the default
  schedule computes;
* an issue-work estimate (``instrs_per_thread``) consumed by the timing
  model.

Blocks are identified by a linear id ``bid = by * grid_x + bx``
(row-major over the grid), matching the dispatch order of the launch
simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.access import (
    AccessKind,
    AccessRange,
    line_sets,
    line_stream,
    line_stream_arrays,
)
from repro.graph.buffers import Buffer


class KernelSpec(ABC):
    """Base class for all kernels.

    Subclasses must set ``grid``, ``block``, ``inputs``, ``outputs``
    and ``instrs_per_thread`` before ``__init__`` returns, and
    implement :meth:`block_accesses`.
    """

    #: Extra issue cycles charged per block for prologue/epilogue work.
    block_overhead_instrs: float = 32.0

    def __init__(
        self,
        name: str,
        grid: Tuple[int, int],
        block: Tuple[int, int],
        inputs: Sequence[Buffer],
        outputs: Sequence[Buffer],
        instrs_per_thread: float = 48.0,
    ):
        if grid[0] <= 0 or grid[1] <= 0:
            raise ConfigurationError(f"kernel '{name}': grid must be positive")
        if block[0] <= 0 or block[1] <= 0:
            raise ConfigurationError(f"kernel '{name}': block must be positive")
        if instrs_per_thread <= 0:
            raise ConfigurationError(
                f"kernel '{name}': instrs_per_thread must be positive"
            )
        self.name = name
        self.grid = grid
        self.block = block
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.instrs_per_thread = float(instrs_per_thread)
        self._stream_cache: Dict[Tuple[int, int], List[Tuple[int, bool]]] = {}
        self._arrays_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._sets_cache: Dict[Tuple[int, int], Tuple[frozenset, frozenset]] = {}
        self._touched_cache: Dict[Tuple[int, int], frozenset] = {}
        self._read_ranges_cache: Dict[Tuple[int, int], tuple] = {}
        self._batch_cache: Dict[
            Tuple[int, int, int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def grid_x(self) -> int:
        return self.grid[0]

    @property
    def grid_y(self) -> int:
        return self.grid[1]

    @property
    def num_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    def block_coords(self, bid: int) -> Tuple[int, int]:
        """(bx, by) coordinates of a linear block id."""
        if not 0 <= bid < self.num_blocks:
            raise ConfigurationError(
                f"kernel '{self.name}': block id {bid} outside grid {self.grid}"
            )
        return bid % self.grid[0], bid // self.grid[0]

    def block_id(self, bx: int, by: int) -> int:
        """Linear id of block (bx, by)."""
        if not (0 <= bx < self.grid[0] and 0 <= by < self.grid[1]):
            raise ConfigurationError(
                f"kernel '{self.name}': block ({bx}, {by}) outside grid {self.grid}"
            )
        return by * self.grid[0] + bx

    def all_block_ids(self) -> range:
        return range(self.num_blocks)

    @property
    def launch_signature(self) -> str:
        """CUDA-style launch string, e.g. ``jacobi<<<(8x32),(32x8)>>>``."""
        return (
            f"{self.name}<<<({self.grid[0]}x{self.grid[1]}),"
            f"({self.block[0]}x{self.block[1]})>>>"
        )

    # ------------------------------------------------------------------
    # Access pattern
    # ------------------------------------------------------------------
    @abstractmethod
    def block_accesses(self, bx: int, by: int) -> List[AccessRange]:
        """Element ranges accessed by block (bx, by), in program order."""

    def block_instrs(self, bx: int, by: int) -> float:
        """Issue work of one block, in warp-instructions.

        Default: every thread executes ``instrs_per_thread``
        instructions; one warp instruction covers 32 threads.
        """
        del bx, by
        warps = -(-self.threads_per_block // 32)
        return warps * self.instrs_per_thread + self.block_overhead_instrs

    def block_line_stream(self, bid: int, line_shift: int) -> List[Tuple[int, bool]]:
        """Memoized ``(line, is_write)`` stream of a block."""
        key = (bid, line_shift)
        cached = self._stream_cache.get(key)
        if cached is None:
            bx, by = self.block_coords(bid)
            cached = line_stream(self.block_accesses(bx, by), line_shift)
            self._stream_cache[key] = cached
        return cached

    def block_line_arrays(
        self, bid: int, line_shift: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized ``(lines, is_write)`` arrays of a block's stream.

        Array twin of :meth:`block_line_stream` (same accesses, same
        order), consumed by the simulator's batched L2 replay.  The arrays are shared between callers; treat them as
        read-only.
        """
        key = (bid, line_shift)
        cached = self._arrays_cache.get(key)
        if cached is None:
            bx, by = self.block_coords(bid)
            cached = line_stream_arrays(self.block_accesses(bx, by), line_shift)
            self._arrays_cache[key] = cached
        return cached

    def range_line_arrays(
        self, blocks: range, line_shift: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized concatenated ``(lines, writes, lengths)`` of a block range.

        The profiler and the throughput experiments replay the same
        ``range(grid)`` prefixes of a kernel dozens of times (one per
        input combination and operating point); concatenating the
        per-block streams once per distinct range keeps the batched
        replay path allocation-free on repeats.  Treat as read-only.
        """
        key = (blocks.start, blocks.stop, blocks.step, line_shift)
        cached = self._batch_cache.get(key)
        if cached is None:
            per = [self.block_line_arrays(b, line_shift) for b in blocks]
            if per:
                lines = np.concatenate([arr for arr, _ in per])
                writes = np.concatenate([w for _, w in per])
            else:
                lines = np.zeros(0, dtype=np.int64)
                writes = np.zeros(0, dtype=bool)
            lengths = np.array([arr.size for arr, _ in per], dtype=np.int64)
            cached = (lines, writes, lengths)
            self._batch_cache[key] = cached
        return cached

    def block_read_line_ranges(self, bid: int, line_shift: int) -> tuple:
        """Memoized ``(buffer_name, first_line, stop_line)`` read ranges.

        One triple per read :class:`AccessRange` of the block, in
        program order — the compact form the auto-profiler uses to
        gather per-buffer warm sets without re-materializing
        AccessRange objects on every (combo, grid) probe.
        """
        key = (bid, line_shift)
        cached = self._read_ranges_cache.get(key)
        if cached is None:
            bx, by = self.block_coords(bid)
            triples = []
            for rng in self.block_accesses(bx, by):
                if not rng.kind.reads:
                    continue
                lines = rng.lines(line_shift)
                if lines:
                    triples.append(
                        (getattr(rng.buffer, "name", None), lines.start, lines.stop)
                    )
            cached = tuple(triples)
            self._read_ranges_cache[key] = cached
        return cached

    def block_line_sets(self, bid: int, line_shift: int) -> Tuple[frozenset, frozenset]:
        """Memoized (read_lines, written_lines) of a block.

        Frozensets are returned (and shared between callers) so that
        the trace and the block analyzer can reference them without
        copies — a kernel graph may contain hundreds of nodes sharing
        one :class:`KernelSpec`.
        """
        key = (bid, line_shift)
        cached = self._sets_cache.get(key)
        if cached is None:
            bx, by = self.block_coords(bid)
            reads, writes = line_sets(self.block_accesses(bx, by), line_shift)
            cached = (frozenset(reads), frozenset(writes))
            self._sets_cache[key] = cached
        return cached

    def block_touched_lines(self, bid: int, line_shift: int) -> frozenset:
        """Memoized union of all lines a block reads or writes."""
        key = (bid, line_shift)
        cached = self._touched_cache.get(key)
        if cached is None:
            reads, writes = self.block_line_sets(bid, line_shift)
            cached = reads | writes
            self._touched_cache[key] = cached
        return cached

    def footprint_lines(self, bids: Sequence[int], line_shift: int) -> Set[int]:
        """Union of all lines touched by the given blocks."""
        lines: Set[int] = set()
        for bid in bids:
            reads, writes = self.block_line_sets(bid, line_shift)
            lines.update(reads)
            lines.update(writes)
        return lines

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run_block(self, arrays: Dict[str, np.ndarray], bx: int, by: int) -> None:
        """Apply this block's computation to numpy arrays, in place.

        ``arrays`` maps buffer names to arrays shaped like the buffers.
        Kernels that exist only for timing studies may leave this
        unimplemented.
        """
        raise NotImplementedError(
            f"kernel '{self.name}' has no functional implementation"
        )

    def run_blocks(self, arrays: Dict[str, np.ndarray], bids: Sequence[int]) -> None:
        """Run a set of blocks functionally (order irrelevant within a kernel)."""
        for bid in bids:
            bx, by = self.block_coords(bid)
            self.run_block(arrays, bx, by)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.launch_signature}>"


def row_accesses(
    buffer: Buffer,
    row0: int,
    row1: int,
    col0: int,
    col1: int,
    kind: AccessKind,
) -> List[AccessRange]:
    """Per-row access ranges over a 2D buffer region, clamped to bounds.

    The region is the half-open rectangle ``[row0, row1) x [col0, col1)``;
    coordinates outside the image are clamped (mirroring the boundary
    handling of the image kernels, which clamp their reads).
    """
    height, width = buffer.height, buffer.width
    row0 = max(0, row0)
    row1 = min(height, row1)
    col0 = max(0, col0)
    col1 = min(width, col1)
    if row0 >= row1 or col0 >= col1:
        return []
    count = col1 - col0
    return [
        AccessRange(buffer, row * width + col0, count, kind)
        for row in range(row0, row1)
    ]


class ImageKernel(KernelSpec):
    """Base class for 2D image kernels.

    Each block computes a ``block_h x block_w`` tile of the *primary
    output* image (one thread per output pixel).  Subclasses describe
    their reads via :meth:`tile_reads` and get the standard tile write
    for free.
    """

    def __init__(
        self,
        name: str,
        out: Buffer,
        inputs: Sequence[Buffer],
        block: Tuple[int, int] = (32, 8),
        instrs_per_thread: float = 48.0,
        extra_outputs: Sequence[Buffer] = (),
    ):
        grid = (-(-out.width // block[0]), -(-out.height // block[1]))
        super().__init__(
            name,
            grid,
            block,
            inputs,
            (out, *extra_outputs),
            instrs_per_thread,
        )
        self.out = out

    def tile_bounds(self, bx: int, by: int) -> Tuple[int, int, int, int]:
        """(row0, row1, col0, col1) of the output tile of block (bx, by)."""
        bw, bh = self.block
        row0 = by * bh
        col0 = bx * bw
        return (
            row0,
            min(self.out.height, row0 + bh),
            col0,
            min(self.out.width, col0 + bw),
        )

    def tile_reads(self, bx: int, by: int) -> List[AccessRange]:
        """Input ranges read by block (bx, by); subclasses override."""
        raise NotImplementedError

    def tile_writes(self, bx: int, by: int) -> List[AccessRange]:
        row0, row1, col0, col1 = self.tile_bounds(bx, by)
        return row_accesses(self.out, row0, row1, col0, col1, AccessKind.STORE)

    def block_accesses(self, bx: int, by: int) -> List[AccessRange]:
        return self.tile_reads(bx, by) + self.tile_writes(bx, by)
