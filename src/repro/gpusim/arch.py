"""GPU architecture model.

A :class:`GpuSpec` captures the architectural parameters that matter for
cache-aware kernel tiling: the streaming-multiprocessor (SM) geometry,
which bounds occupancy and hence latency hiding, and the shared L2 cache
geometry, which bounds the memory footprint a tiling round may touch.

The default specification mirrors the paper's evaluation platform, an
NVIDIA GeForce GTX 960M (5 Maxwell SMs, 640 CUDA cores, 2 MB L2,
GDDR5 on a 128-bit bus).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Number of threads in a warp.  Fixed across all CUDA architectures.
WARP_SIZE = 32


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


#: Counts and sizes: a zero or negative value describes no device.
_POSITIVE_FIELDS = (
    "num_sms",
    "cores_per_sm",
    "schedulers_per_sm",
    "max_threads_per_sm",
    "max_warps_per_sm",
    "max_blocks_per_sm",
    "max_threads_per_block",
    "l2_bytes",
    "l2_line_bytes",
    "l2_assoc",
    "mem_bus_bytes",
)

#: Fields that count something discrete: only a true integer describes a
#: device (``2.5`` SMs or a ``2.0``-way cache would fail deep inside a
#: simulation instead of here).
_INTEGER_FIELDS = _POSITIVE_FIELDS + ("l2_hit_latency_cycles",)

#: Latencies, the DRAM reference frequency and the launch gap: zero is a
#: valid idealization, a negative value is not (the rules
#: :class:`~repro.gpusim.dram.DramModel` and ``KTiler.plan`` apply too).
_NON_NEGATIVE_FIELDS = (
    "l2_hit_latency_cycles",
    "dram_fixed_latency_ns",
    "dram_freq_latency_ns",
    "dram_ref_mhz",
    "launch_gap_us",
)


@dataclass(frozen=True)
class GpuSpec:
    """Architectural description of a GPU.

    Parameters
    ----------
    name:
        Human-readable device name.
    num_sms:
        Number of streaming multiprocessors.
    cores_per_sm:
        CUDA cores per SM (used for documentation only; issue throughput
        is modelled via ``schedulers_per_sm``).
    schedulers_per_sm:
        Warp schedulers per SM; each can issue one instruction per cycle.
    max_threads_per_sm / max_warps_per_sm / max_blocks_per_sm:
        Residency limits used by the occupancy calculator.
    max_threads_per_block:
        Hard per-block thread limit.
    l2_bytes / l2_line_bytes / l2_assoc:
        Shared L2 cache geometry.
    l2_hit_latency_cycles:
        Latency of an L2 hit, in GPU core cycles.
    dram_fixed_latency_ns / dram_freq_latency_ns / dram_ref_mhz:
        DRAM miss latency model: the frequency-dependent part scales as
        ``dram_ref_mhz / mem_mhz`` (see :mod:`repro.gpusim.dram`).
    mem_bus_bytes:
        Bytes transferred per memory data-rate cycle (128-bit bus = 16).
    launch_gap_us:
        Default inter-launch gap (idle time between consecutive kernel
        launches) in microseconds.
    """

    name: str = "GeForce GTX 960M"
    num_sms: int = 5
    cores_per_sm: int = 128
    schedulers_per_sm: int = 4
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32
    max_threads_per_block: int = 1024
    l2_bytes: int = 2 * 1024 * 1024
    l2_line_bytes: int = 128
    l2_assoc: int = 16
    l2_hit_latency_cycles: int = 200
    dram_fixed_latency_ns: float = 120.0
    dram_freq_latency_ns: float = 180.0
    dram_ref_mhz: float = 2505.0
    mem_bus_bytes: int = 16
    launch_gap_us: float = 8.0
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # Every field is checked here, up front, so a bad spec fails at
        # construction instead of deep inside a simulation.
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)!r}"
                )
        if not _is_power_of_two(self.l2_line_bytes):
            raise ConfigurationError("l2_line_bytes must be a power of two")
        if self.l2_bytes % (self.l2_line_bytes * self.l2_assoc) != 0:
            raise ConfigurationError(
                "l2_bytes must be divisible by l2_line_bytes * l2_assoc"
            )

    @property
    def line_shift(self) -> int:
        """log2 of the cache line size; ``address >> line_shift`` is a line id."""
        return self.l2_line_bytes.bit_length() - 1

    @property
    def l2_num_lines(self) -> int:
        """Total number of cache lines in the L2."""
        return self.l2_bytes // self.l2_line_bytes

    @property
    def l2_num_sets(self) -> int:
        """Number of cache sets in the L2."""
        return self.l2_num_lines // self.l2_assoc

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    def blocks_per_sm(self, threads_per_block: int) -> int:
        """Number of blocks of the given size that can reside on one SM.

        This is the classic CUDA occupancy calculation restricted to the
        thread/warp/block residency limits (shared memory and register
        pressure are not modelled).
        """
        if threads_per_block <= 0:
            raise ConfigurationError("threads_per_block must be positive")
        if threads_per_block > self.max_threads_per_block:
            raise ConfigurationError(
                f"block of {threads_per_block} threads exceeds the device "
                f"limit of {self.max_threads_per_block}"
            )
        warps_per_block = -(-threads_per_block // WARP_SIZE)
        by_threads = self.max_threads_per_sm // threads_per_block
        by_warps = self.max_warps_per_sm // warps_per_block
        by_blocks = self.max_blocks_per_sm
        return max(1, min(by_threads, by_warps, by_blocks))

    def resident_warps(self, threads_per_block: int, num_blocks: int) -> int:
        """Warps resident on one SM for a launch of ``num_blocks`` blocks.

        Assumes blocks are distributed round-robin over the SMs, so one SM
        holds at most ``ceil(num_blocks / num_sms)`` of them, further
        capped by the occupancy limit.
        """
        warps_per_block = -(-threads_per_block // WARP_SIZE)
        resident_blocks = min(
            self.blocks_per_sm(threads_per_block),
            max(1, -(-num_blocks // self.num_sms)),
        )
        return resident_blocks * warps_per_block

    def occupancy(self, threads_per_block: int) -> float:
        """Fraction of the SM's warp slots used at full residency."""
        warps_per_block = -(-threads_per_block // WARP_SIZE)
        resident = self.blocks_per_sm(threads_per_block) * warps_per_block
        return min(1.0, resident / self.max_warps_per_sm)


#: The paper's evaluation platform.
GTX_960M = GpuSpec()

#: A smaller embedded-class device (half the SMs, 1 MB L2) used in tests
#: and ablations to shift the footprint:cache crossover.
EMBEDDED_GPU = GpuSpec(
    name="Embedded-class GPU",
    num_sms=2,
    cores_per_sm=128,
    l2_bytes=1024 * 1024,
    max_warps_per_sm=32,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
)

#: A larger desktop-class device for ablations.
DESKTOP_GPU = GpuSpec(
    name="Desktop-class GPU",
    num_sms=10,
    cores_per_sm=128,
    l2_bytes=4 * 1024 * 1024,
)


def spec_with_l2(spec: GpuSpec, l2_bytes: int) -> GpuSpec:
    """Return a copy of ``spec`` with a different L2 size (for ablations)."""
    from dataclasses import replace

    return replace(spec, l2_bytes=l2_bytes)
