"""Streaming log-bucket latency histograms.

The serve daemon needs latency *distributions*, not just sums: a p99
that doubles while the mean sleeps is exactly the regression
``/metrics`` and a human on ``/statusz`` must see.  Storing raw
samples is off the table for a long-running daemon, so this module
provides the classic fixed-layout log-bucket histogram:

* **fixed bucket layout** — a geometric ladder of upper bounds shared
  by every histogram built from the same ``bounds`` tuple, so two
  histograms are mergeable by adding counts (exact, associative);
* **O(1) insert** — a sample updates one bucket counter plus the
  running count/sum/min/max; nothing is ever resized or sorted
  (the bisect over the fixed ladder is bounded by the layout size);
* **deterministic quantiles** — linear interpolation inside the
  covering bucket, clamped to the observed ``[min, max]``; a pure
  function of the bucket counts, independent of insertion order.

Bucket semantics follow Prometheus: bucket ``i`` counts samples with
``bounds[i-1] < value <= bounds[i]`` and a final overflow bucket
counts everything above the last bound (rendered as ``le="+Inf"``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_S",
    "LogHistogram",
    "merge_histograms",
]

# 0.1 ms doubling up to ~838 s: sub-millisecond memo hits through
# planner jobs that brush the serve timeout all land in finite buckets.
DEFAULT_LATENCY_BOUNDS_S: Tuple[float, ...] = tuple(
    1e-4 * 2.0**i for i in range(24)
)


def _format_bound(bound: float) -> str:
    """A stable, compact ``le`` label (``0.0016``, not ``0.0015999...``)."""
    return format(bound, ".12g")


class LogHistogram:
    """A mergeable fixed-bucket histogram with streaming inserts."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0.0 or b != b for b in bounds):
            raise ValueError("bucket bounds must be positive and finite")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    # Inserts and merges
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if value != value or value < 0.0:
            raise ValueError(f"histogram values must be >= 0, got {value!r}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into ``self`` (same layout required)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different layouts")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    def copy(self) -> "LogHistogram":
        clone = LogHistogram(self.bounds)
        clone.merge(self)
        return clone

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _edges(self, index: int) -> Tuple[float, float]:
        lo = 0.0 if index == 0 else self.bounds[index - 1]
        if index < len(self.bounds):
            hi = self.bounds[index]
        else:  # overflow bucket: the observed max is the only upper bound
            hi = self.max if self.max is not None else lo
        return lo, hi

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate (linear within the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        assert self.min is not None and self.max is not None
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo, hi = self._edges(index)
                fraction = (rank - cumulative) / bucket_count
                if fraction < 0.0:
                    fraction = 0.0
                value = lo + fraction * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def bucket_pairs(self) -> List[Tuple[str, int]]:
        """Prometheus-style cumulative ``(le label, count)`` pairs."""
        pairs: List[Tuple[str, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            pairs.append((_format_bound(bound), cumulative))
        pairs.append(("+Inf", cumulative + self.counts[-1]))
        return pairs

    def snapshot(
        self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Dict[str, object]:
        """A human/JSON-facing summary: trimmed per-bucket counts plus
        quantile estimates (used by ``/debug/vars`` and ``/statusz``)."""
        occupied = [i for i, c in enumerate(self.counts) if c]
        buckets: List[Dict[str, object]] = []
        if occupied:
            for index in range(occupied[0], occupied[-1] + 1):
                le = (
                    _format_bound(self.bounds[index])
                    if index < len(self.bounds)
                    else "+Inf"
                )
                buckets.append({"le": le, "count": self.counts[index]})
        out: Dict[str, object] = {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }
        if self.count:
            out["quantiles"] = {
                f"p{round(q * 100):d}": round(self.quantile(q), 9)
                for q in quantiles
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogHistogram(count={self.count}, sum={self.sum:.6g}, "
            f"min={self.min}, max={self.max})"
        )


def merge_histograms(histograms: Iterable[LogHistogram]) -> Optional[LogHistogram]:
    """Merge any number of same-layout histograms into a fresh one."""
    merged: Optional[LogHistogram] = None
    for hist in histograms:
        if merged is None:
            merged = LogHistogram(hist.bounds)
        merged.merge(hist)
    return merged
