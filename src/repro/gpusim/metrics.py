"""Profiler-style performance counters (Figure 2 analog).

The paper's Figure 2 compares the NVIDIA profiler's view of the Jacobi
kernel at the default grid size and at 1/32 of it: L2 hit rate, warp
issue efficiency (fraction of cycles with at least one eligible warp)
and the issue-stall-reason breakdown (memory dependency vs. other).
:class:`KernelProfile` packages the same counters from a simulated
launch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.executor import LaunchResult


@dataclass(frozen=True)
class KernelProfile:
    """The Figure 2 counter set for one launch."""

    kernel_name: str
    num_blocks: int
    cache_hit_rate: float
    warp_issue_efficiency: float
    memory_stall_fraction: float
    time_us: float

    @classmethod
    def from_result(cls, result: LaunchResult) -> "KernelProfile":
        return cls(
            kernel_name=result.tally.kernel_name,
            num_blocks=result.tally.num_blocks,
            cache_hit_rate=result.tally.hit_rate,
            warp_issue_efficiency=result.timing.warp_issue_efficiency,
            memory_stall_fraction=result.timing.memory_stall_fraction,
            time_us=result.time_us,
        )

    @property
    def no_eligible_warp_fraction(self) -> float:
        """Complement of warp issue efficiency (the paper's left pies)."""
        return 1.0 - self.warp_issue_efficiency

    @property
    def other_stall_fraction(self) -> float:
        return 1.0 - self.memory_stall_fraction

    def summary_dict(self, float_digits: int = 10) -> dict:
        """JSON-stable view of the counters.

        Floats are rounded so serialized fixtures compare exactly
        across runs; integers pass through untouched.  This is the
        record format of the golden-figure fixtures in
        ``tests/golden/``, which the simulator must reproduce verbatim.
        """
        return {
            "kernel_name": self.kernel_name,
            "num_blocks": self.num_blocks,
            "cache_hit_rate": round(self.cache_hit_rate, float_digits),
            "warp_issue_efficiency": round(self.warp_issue_efficiency, float_digits),
            "memory_stall_fraction": round(self.memory_stall_fraction, float_digits),
            "time_us": round(self.time_us, float_digits),
        }

    def format_row(self) -> str:
        return (
            f"{self.kernel_name:<20} blocks={self.num_blocks:>6} "
            f"hit={self.cache_hit_rate * 100:5.1f}% "
            f"issue_eff={self.warp_issue_efficiency * 100:5.1f}% "
            f"mem_stalls={self.memory_stall_fraction * 100:5.1f}% "
            f"t={self.time_us:9.2f}us"
        )


def compare_profiles(default: KernelProfile, tiled: KernelProfile) -> dict:
    """Summarize a default-vs-tiled profile pair (Figure 2 shape checks)."""
    return {
        "hit_rate_gap": tiled.cache_hit_rate - default.cache_hit_rate,
        "issue_efficiency_ratio": (
            tiled.warp_issue_efficiency / default.warp_issue_efficiency
            if default.warp_issue_efficiency
            else float("inf")
        ),
        "memory_stall_drop": (
            default.memory_stall_fraction - tiled.memory_stall_fraction
        ),
    }
