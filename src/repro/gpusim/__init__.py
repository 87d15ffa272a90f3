"""GPU simulator substrate: architecture, L2 cache, DRAM, launch timing.

This package replaces the paper's physical GTX 960M with a block-level
timing simulator; see DESIGN.md §2 for the substitution argument.
"""

from repro.gpusim.access import (
    AccessKind,
    AccessRange,
    MemorySpace,
    footprint_bytes,
    line_sets,
    line_stream,
)
from repro.gpusim.arch import (
    DESKTOP_GPU,
    EMBEDDED_GPU,
    GTX_960M,
    WARP_SIZE,
    GpuSpec,
    spec_with_l2,
)
from repro.gpusim.cache import CacheStats
from repro.gpusim.dram import DramModel
from repro.gpusim.fast_cache import FastSetAssocCache
from repro.gpusim.executor import (
    GpuSimulator,
    LaunchResult,
    LaunchTally,
    LaunchTiming,
    time_launch,
)
from repro.gpusim.freq import FIG3_CONFIGS, FIG5_CONFIGS, NOMINAL, FrequencyConfig
from repro.gpusim.metrics import KernelProfile, compare_profiles
from repro.gpusim.timeline import Timeline, TimelineEvent
from repro.gpusim.trace import BlockTraceRecord, MemoryTrace, TraceRecorder

__all__ = [
    "AccessKind",
    "AccessRange",
    "MemorySpace",
    "footprint_bytes",
    "line_sets",
    "line_stream",
    "GpuSpec",
    "GTX_960M",
    "EMBEDDED_GPU",
    "DESKTOP_GPU",
    "WARP_SIZE",
    "spec_with_l2",
    "CacheStats",
    "FastSetAssocCache",
    "DramModel",
    "GpuSimulator",
    "LaunchResult",
    "LaunchTally",
    "LaunchTiming",
    "time_launch",
    "FrequencyConfig",
    "FIG3_CONFIGS",
    "FIG5_CONFIGS",
    "NOMINAL",
    "KernelProfile",
    "compare_profiles",
    "Timeline",
    "TimelineEvent",
    "BlockTraceRecord",
    "MemoryTrace",
    "TraceRecorder",
]
