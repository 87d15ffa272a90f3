"""Block-level GPU launch simulator.

This is the substitute for the paper's physical GTX 960M.  A *launch*
(a kernel, or a sub-kernel — i.e. a kernel restricted to a subset of
its blocks) is simulated in two steps:

1. **Cache replay.**  Blocks are dispatched round-robin over the SMs in
   block-id order and their warp-coalesced line streams are replayed,
   concatenated in dispatch order, through the shared L2 (which
   persists across launches — the effect KTILER exploits).  This yields
   per-SM hit/miss tallies.
2. **Timing.**  Per-SM cycles are computed from three components:

   * *issue cycles* — warp instructions divided by the SM's issue width;
   * *memory stalls* — the sum of access latencies (hit latency for L2
     hits, DRAM latency for misses) divided by a latency-hiding factor
     proportional to the resident warps (occupancy), floored by the
     DRAM bandwidth term ``miss_bytes / bandwidth``;
   * *other stalls* — a fixed fraction of issue cycles (pipeline,
     synchronization), matching the "other" slice of the paper's
     Figure 2 stall breakdown.

   The launch time is the maximum over the busy SMs, additionally
   floored by the launch-wide DRAM bandwidth term.

The split between :class:`LaunchTally` (frequency-independent cache and
work counts) and :func:`time_launch` (frequency-dependent timing) lets
experiments re-time one simulated run under many DVFS operating points
— cache behaviour does not depend on frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.arch import GpuSpec, WARP_SIZE
from repro.gpusim.dram import DramModel
from repro.gpusim.fast_cache import FastSetAssocCache
from repro.gpusim.freq import FrequencyConfig, NOMINAL
from repro.obs.tracer import NULL_TRACER

#: Memory-level parallelism per warp: outstanding transactions one warp
#: can keep in flight (Maxwell allows several pending loads per warp).
MLP_PER_WARP = 4

#: "Other" (non-memory) stall cycles charged per issue cycle.
OTHER_STALL_FRACTION = 0.6


@dataclass
class LaunchTally:
    """Frequency-independent outcome of one simulated launch."""

    kernel_name: str
    num_blocks: int
    threads_per_block: int
    resident_warps: int
    per_sm_issue: List[float]
    per_sm_hits: List[int]
    per_sm_misses: List[int]
    line_bytes: int

    @property
    def hits(self) -> int:
        return sum(self.per_sm_hits)

    @property
    def misses(self) -> int:
        return sum(self.per_sm_misses)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def miss_bytes(self) -> int:
        return self.misses * self.line_bytes

    @property
    def issue_cycles(self) -> float:
        return sum(self.per_sm_issue)


@dataclass(frozen=True)
class LaunchTiming:
    """Frequency-dependent timing of one launch."""

    cycles: float
    time_us: float
    issue_cycles: float
    mem_stall_cycles: float
    other_stall_cycles: float
    bandwidth_bound: bool

    @property
    def total_accounted_cycles(self) -> float:
        return self.issue_cycles + self.mem_stall_cycles + self.other_stall_cycles

    @property
    def warp_issue_efficiency(self) -> float:
        """Fraction of cycles with at least one eligible warp (Fig. 2)."""
        total = self.total_accounted_cycles
        return self.issue_cycles / total if total else 0.0

    @property
    def memory_stall_fraction(self) -> float:
        """Memory-dependency share of all stall cycles (Fig. 2)."""
        stalls = self.mem_stall_cycles + self.other_stall_cycles
        return self.mem_stall_cycles / stalls if stalls else 0.0


@dataclass(frozen=True)
class LaunchResult:
    """Tally plus timing at the frequency the launch ran at."""

    tally: LaunchTally
    timing: LaunchTiming
    freq: FrequencyConfig

    @property
    def kernel_name(self) -> str:
        return self.tally.kernel_name

    @property
    def time_us(self) -> float:
        return self.timing.time_us

    @property
    def hit_rate(self) -> float:
        return self.tally.hit_rate

    @property
    def throughput_blocks_per_us(self) -> float:
        return self.tally.num_blocks / self.timing.time_us if self.timing.time_us else 0.0


def time_launch(
    tally: LaunchTally,
    spec: GpuSpec,
    dram: DramModel,
    freq: FrequencyConfig,
) -> LaunchTiming:
    """Compute the timing of a tallied launch at an operating point."""
    hit_lat = spec.l2_hit_latency_cycles
    miss_lat = dram.miss_latency_cycles(freq)
    hide = max(1.0, tally.resident_warps * MLP_PER_WARP)
    bw_per_cycle = dram.bandwidth_bytes_per_cycle(freq)

    busy_sms = [
        sm
        for sm in range(len(tally.per_sm_issue))
        if tally.per_sm_issue[sm] or tally.per_sm_hits[sm] or tally.per_sm_misses[sm]
    ]
    num_busy = max(1, len(busy_sms))

    worst_cycles = 0.0
    issue_total = 0.0
    mem_total = 0.0
    other_total = 0.0
    bandwidth_bound = False
    for sm in busy_sms:
        issue = tally.per_sm_issue[sm]
        latency = tally.per_sm_hits[sm] * hit_lat + tally.per_sm_misses[sm] * miss_lat
        sm_miss_bytes = tally.per_sm_misses[sm] * tally.line_bytes
        # The SM's share of DRAM bandwidth (bandwidth is shared device-wide).
        bw_cycles = (
            sm_miss_bytes / (bw_per_cycle / num_busy) if bw_per_cycle > 0 else 0.0
        )
        hidden_latency = latency / hide
        if bw_cycles > hidden_latency:
            bandwidth_bound = True
        mem_stall = max(hidden_latency, bw_cycles)
        other = OTHER_STALL_FRACTION * issue
        sm_cycles = issue + other + mem_stall
        worst_cycles = max(worst_cycles, sm_cycles)
        issue_total += issue
        mem_total += mem_stall
        other_total += other

    # Launch-wide bandwidth floor (all SMs' misses share one DRAM bus).
    launch_bw_cycles = (
        tally.miss_bytes / bw_per_cycle if bw_per_cycle > 0 else 0.0
    )
    cycles = max(worst_cycles, launch_bw_cycles)
    if launch_bw_cycles > worst_cycles:
        bandwidth_bound = True
        # Attribute the extra wait to memory stalls for metric purposes.
        mem_total += (launch_bw_cycles - worst_cycles) * num_busy

    return LaunchTiming(
        cycles=cycles,
        time_us=freq.cycles_to_us(cycles),
        issue_cycles=issue_total,
        mem_stall_cycles=mem_total,
        other_stall_cycles=other_total,
        bandwidth_bound=bandwidth_bound,
    )


class GpuSimulator:
    """A GPU device: spec + DVFS state + persistent shared L2.

    The simulator exposes CUDA-runtime-ish verbs: :meth:`launch` runs a
    (sub-)kernel, :meth:`copy_to_device` models a host-to-device
    transfer, and the cache persists until :meth:`reset_cache`.
    """

    def __init__(
        self,
        spec: GpuSpec = None,
        freq: FrequencyConfig = NOMINAL,
        tracer=NULL_TRACER,
    ):
        self.spec = spec if spec is not None else GpuSpec()
        self.freq = freq
        self.dram = DramModel.from_spec(self.spec)
        self.l2 = FastSetAssocCache.from_spec(self.spec)
        self.launches: List[LaunchResult] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def set_frequency(self, freq: FrequencyConfig) -> None:
        self.freq = freq

    def reset_cache(self) -> None:
        self.l2.flush()

    def reset(self) -> None:
        self.reset_cache()
        self.launches.clear()
        self.l2.stats.reset()

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel,
        block_ids: Optional[Sequence[int]] = None,
        recorder=None,
    ) -> LaunchResult:
        """Simulate one launch of ``kernel`` over ``block_ids``.

        ``block_ids`` defaults to the full grid.  ``recorder``, when
        given, receives every block's line sets (see
        :class:`repro.gpusim.trace.TraceRecorder`).
        """
        tally = self.tally_launch(kernel, block_ids, recorder)
        timing = time_launch(tally, self.spec, self.dram, self.freq)
        result = LaunchResult(tally=tally, timing=timing, freq=self.freq)
        tracer = self.tracer
        if tracer.enabled:
            # Simulated-time span: cursor is the device busy time so far.
            tracer.sim_span(
                tally.kernel_name,
                ts_us=self.total_time_us,
                dur_us=timing.time_us,
                cat="launch",
                blocks=tally.num_blocks,
                l2_hit_rate=round(tally.hit_rate, 6),
                bandwidth_bound=timing.bandwidth_bound,
            )
            tracer.metrics.inc(
                "sim.launch.time_us", timing.time_us, kernel=tally.kernel_name
            )
        self.launches.append(result)
        return result

    def tally_launch(
        self,
        kernel,
        block_ids: Optional[Sequence[int]] = None,
        recorder=None,
    ) -> LaunchTally:
        """Cache replay of a launch; returns the frequency-independent tally."""
        if block_ids is None:
            blocks: Sequence[int] = range(kernel.num_blocks)
        else:
            blocks = block_ids
        num_blocks = len(blocks)
        if num_blocks == 0:
            raise SimulationError(
                f"launch of '{kernel.name}' with an empty block list"
            )
        attribution = self.l2.attribution
        if attribution is not None:
            attribution.begin_launch(kernel.name, num_blocks)
        nsms = self.spec.num_sms
        line_shift = self.spec.line_shift
        per_sm_issue = [0.0] * nsms
        per_sm_hits = [0] * nsms
        per_sm_misses = [0] * nsms
        cache = self.l2
        tracer = self.tracer
        stats_before = cache.stats.snapshot() if tracer.enabled else None
        # Concatenate every block's line stream and replay the whole
        # launch in one vectorized call, then attribute hits back to
        # blocks from the per-access mask.  Blocks are concatenated in
        # dispatch order, so the within-set access order — the only
        # order LRU depends on — is that of a block-by-block replay.
        if isinstance(blocks, range):
            all_lines, all_writes, lengths = kernel.range_line_arrays(
                blocks, line_shift
            )
        else:
            per_block = [
                kernel.block_line_arrays(bid, line_shift) for bid in blocks
            ]
            lengths = np.array(
                [arr.size for arr, _ in per_block], dtype=np.int64
            )
            all_lines = np.concatenate([arr for arr, _ in per_block])
            all_writes = np.concatenate([w for _, w in per_block])
        hit_mask = cache.replay_arrays(all_lines, all_writes)
        hit_cum = np.concatenate(([0], np.cumsum(hit_mask, dtype=np.int64)))
        offset = 0
        for i, bid in enumerate(blocks):
            sm = i % nsms
            end = offset + int(lengths[i])
            hits = int(hit_cum[end] - hit_cum[offset])
            misses = end - offset - hits
            offset = end
            bx, by = kernel.block_coords(bid)
            per_sm_issue[sm] += (
                kernel.block_instrs(bx, by) / self.spec.schedulers_per_sm
            )
            per_sm_hits[sm] += hits
            per_sm_misses[sm] += misses
            if recorder is not None:
                recorder.record_block(kernel, bid, line_shift)
        if stats_before is not None:
            cache.stats.delta_since(stats_before).publish(
                tracer.metrics, prefix="sim.cache", kernel=kernel.name
            )
            tracer.metrics.inc("sim.launch.count", 1, kernel=kernel.name)
            tracer.metrics.inc("sim.launch.blocks", num_blocks, kernel=kernel.name)
        return LaunchTally(
            kernel_name=kernel.name,
            num_blocks=num_blocks,
            threads_per_block=kernel.threads_per_block,
            resident_warps=self.spec.resident_warps(
                kernel.threads_per_block, num_blocks
            ),
            per_sm_issue=per_sm_issue,
            per_sm_hits=per_sm_hits,
            per_sm_misses=per_sm_misses,
            line_bytes=self.spec.l2_line_bytes,
        )

    def copy_to_device(self, buffer) -> float:
        """Model a host-to-device copy of ``buffer``.

        The copied data lands in the L2 (write-allocate), and the copy
        time is the transfer at DRAM bandwidth plus a fixed setup cost.
        Returns the copy time in microseconds.
        """
        self.l2.touch_many(buffer.lines(self.spec.line_shift))
        cycles = self.dram.transfer_cycles(buffer.nbytes, self.freq)
        return self.freq.cycles_to_us(cycles) + 2.0

    @property
    def total_time_us(self) -> float:
        return sum(r.time_us for r in self.launches)
