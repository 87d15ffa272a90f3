"""§II kernel tiling-suitability study.

The paper names three conditions a kernel must satisfy to benefit from
tiling, and lists kernels that respond well (reduction, Hillis–Steele
scan, bitonic sort on large arrays, matrix multiplication on special
dimensions, matrix transpose, Black–Scholes) plus one that does not
(a convolution filter, whose high per-thread locality leaves little
hit-rate headroom).  This experiment scores a kernel zoo on:

1. the **hit-rate gap** between the default grid with a cold cache and
   a minimum-size sub-kernel with warmed inputs (condition 1: room for
   improvement);
2. the **memory-dependency stall fraction** at the default grid
   (condition 2: memory-bound);
3. **input-dependence** of the access pattern (condition 3: block
   dependencies must be computable offline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gpusim import GpuSimulator, GpuSpec, NOMINAL
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import time_launch
from repro.gpusim.freq import FrequencyConfig
from repro.graph.buffers import BufferAllocator
from repro.kernels import (
    BlackScholesKernel,
    BitonicStepKernel,
    ConvolveKernel,
    GrayscaleKernel,
    JacobiKernel,
    MatMulKernel,
    ReductionKernel,
    ScanStepKernel,
    TransposeKernel,
    WarpKernel,
)

#: Suitability thresholds (condition 1 and 2 cutoffs).
HIT_GAP_CUTOFF = 0.30
MEM_STALL_CUTOFF = 0.50


@dataclass
class SuitabilityRow:
    kernel_name: str
    num_blocks: int
    default_hit_rate: float
    tiled_hit_rate: float
    memory_stall_fraction: float
    input_dependent: bool

    @property
    def hit_rate_gap(self) -> float:
        return self.tiled_hit_rate - self.default_hit_rate

    @property
    def tileable(self) -> bool:
        return (
            self.hit_rate_gap >= HIT_GAP_CUTOFF
            and self.memory_stall_fraction >= MEM_STALL_CUTOFF
            and not self.input_dependent
        )

    def format_row(self) -> str:
        verdict = "input-dep" if self.input_dependent else (
            "tileable" if self.tileable else "poor fit"
        )
        return (
            f"  {self.kernel_name:<14}{self.default_hit_rate * 100:8.1f}%"
            f"{self.tiled_hit_rate * 100:8.1f}%"
            f"{self.hit_rate_gap * 100:+8.1f}"
            f"{self.memory_stall_fraction * 100:9.1f}%   {verdict}"
        )


@dataclass
class SuitabilityResult:
    rows: List[SuitabilityRow]

    def row(self, kernel_name: str) -> SuitabilityRow:
        for row in self.rows:
            if row.kernel_name == kernel_name:
                return row
        raise KeyError(kernel_name)

    def format_table(self) -> str:
        lines = [
            "Kernel tiling-suitability study (paper section II)",
            f"  {'kernel':<14}{'hit@def':>9}{'hit@min':>8}{'gap':>8}"
            f"{'mem stl':>10}   verdict",
        ]
        lines += [row.format_row() for row in self.rows]
        return "\n".join(lines)


def _kernel_zoo(n_1d: int, img: int) -> List[Tuple[str, object]]:
    """(name, kernel) pairs; each kernel gets its own address space."""
    zoo: List[Tuple[str, object]] = []

    alloc = BufferAllocator()
    src = alloc.new("r_src", n_1d)
    out = alloc.new("r_out", -(-n_1d // 2048))
    zoo.append(("reduction", ReductionKernel(src, out)))

    alloc = BufferAllocator()
    src = alloc.new("s_src", n_1d)
    out = alloc.new("s_out", n_1d)
    zoo.append(("scan", ScanStepKernel(src, out, distance=512)))

    alloc = BufferAllocator()
    src = alloc.new("b_src", 1 << 20)
    out = alloc.new("b_out", 1 << 20)
    zoo.append(("bitonic", BitonicStepKernel(src, out, 1 << 12, 1 << 11)))

    alloc = BufferAllocator()
    # The paper's "matrix multiplication on arrays with special
    # dimensions": a tall-skinny product (m >> n) with tall 8x32 output
    # tiles.  The streamed A panels dominate the traffic while the
    # narrow B stays resident, so sub-kernels whose A panels fit the L2
    # have real headroom.
    a = alloc.new("m_a", 16384 * 512, shape=(16384, 512))
    b = alloc.new("m_b", 512 * 8, shape=(512, 8))
    c = alloc.new("m_c", 16384 * 8, shape=(16384, 8))
    zoo.append(("matmul", MatMulKernel(a, b, c, block=(8, 32))))

    alloc = BufferAllocator()
    src = alloc.new("t_src", img * img, shape=(img, img))
    out = alloc.new("t_out", img * img, shape=(img, img))
    zoo.append(("transpose", TransposeKernel(src, out)))

    alloc = BufferAllocator()
    bufs = [alloc.new(f"bs_{i}", n_1d) for i in range(5)]
    zoo.append(("blackscholes", BlackScholesKernel(*bufs)))

    alloc = BufferAllocator()
    src = alloc.new_image("g_src", img, 4 * img)
    out = alloc.new_image("g_out", img, img)
    zoo.append(("grayscale", GrayscaleKernel(src, out)))

    alloc = BufferAllocator()
    names = ["j_du0", "j_dv0", "j_ix", "j_iy", "j_it", "j_du1", "j_dv1"]
    fields = [alloc.new_image(n, img, img) for n in names]
    zoo.append(("jacobi", JacobiKernel(*fields)))

    alloc = BufferAllocator()
    src = alloc.new_image("c_src", img, img)
    out = alloc.new_image("c_out", img, img)
    zoo.append(("convolve", ConvolveKernel(src, out, radius=4)))

    alloc = BufferAllocator()
    src = alloc.new_image("w_src", img, img)
    u = alloc.new_image("w_u", img, img)
    v = alloc.new_image("w_v", img, img)
    out = alloc.new_image("w_out", img, img)
    zoo.append(("warp", WarpKernel(src, u, v, out)))

    return zoo


def _profile_kernel(
    kernel, spec: GpuSpec, freq: FrequencyConfig, min_fraction: int,
) -> SuitabilityRow:
    dram = DramModel.from_spec(spec)
    line_shift = spec.line_shift

    # Default grid, cold cache.
    sim = GpuSimulator(spec, freq)
    default_tally = sim.tally_launch(kernel)
    default_timing = time_launch(default_tally, spec, dram, freq)

    # Minimum grid with the inputs tiling would have made resident.
    sub_blocks = range(max(1, kernel.num_blocks // min_fraction))
    warm_lines = set()
    for bid in sub_blocks:
        reads, _ = kernel.block_line_sets(bid, line_shift)
        warm_lines |= reads
    sim = GpuSimulator(spec, freq)
    sim.l2.touch_many(sorted(warm_lines))
    tiled_tally = sim.tally_launch(kernel, sub_blocks)

    return SuitabilityRow(
        kernel_name=kernel.name,
        num_blocks=kernel.num_blocks,
        default_hit_rate=default_tally.hit_rate,
        tiled_hit_rate=tiled_tally.hit_rate,
        memory_stall_fraction=default_timing.memory_stall_fraction,
        input_dependent=bool(getattr(kernel, "input_dependent", False)),
    )


def run_suitability(
    spec: Optional[GpuSpec] = None,
    freq: FrequencyConfig = NOMINAL,
    n_1d: int = 4 << 20,
    image_size: int = 1024,
    min_fraction: int = 32,
    tracer=None,
) -> SuitabilityResult:
    """Score the kernel zoo on the paper's three tiling conditions."""
    from repro.obs.tracer import NULL_TRACER

    if tracer is None:
        tracer = NULL_TRACER
    used_spec = spec if spec is not None else GpuSpec()
    rows = []
    for _, kernel in _kernel_zoo(n_1d, image_size):
        with tracer.span("suitability.profile", cat="profile", kernel=kernel.name):
            row = _profile_kernel(kernel, used_spec, freq, min_fraction)
        rows.append(row)
        if tracer.enabled:
            m = tracer.metrics
            m.set_gauge(
                "suitability.hit_rate_gap", row.hit_rate_gap, kernel=row.kernel_name
            )
            m.set_gauge(
                "suitability.tileable", float(row.tileable), kernel=row.kernel_name
            )
    return SuitabilityResult(rows=rows)
