"""Hit/miss counters of the simulated L2.

The L2 itself is :class:`repro.gpusim.fast_cache.FastSetAssocCache`, a
set-associative LRU cache over line identifiers (byte address
right-shifted by the line-size log2); translating element accesses into
line streams is the job of :mod:`repro.gpusim.access`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class CacheStats:
    """Aggregate hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1]; 0.0 when no accesses were made."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            writes=self.writes + other.writes,
        )

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        """Immutable ``(hits, misses, evictions, writes)`` view.

        Pair with :meth:`delta_since` to attribute cache activity to one
        launch without any per-access bookkeeping — the replay hot path
        stays untouched and only two snapshots bracket it.
        """
        return (self.hits, self.misses, self.evictions, self.writes)

    def delta_since(self, snapshot: Tuple[int, int, int, int]) -> "CacheStats":
        """Activity since a :meth:`snapshot`, as a new CacheStats."""
        return CacheStats(
            hits=self.hits - snapshot[0],
            misses=self.misses - snapshot[1],
            evictions=self.evictions - snapshot[2],
            writes=self.writes - snapshot[3],
        )

    def publish(self, metrics, prefix: str = "cache", **labels) -> None:
        """Push the four counters into an obs registry under ``prefix``."""
        metrics.inc(f"{prefix}.hits", self.hits, **labels)
        metrics.inc(f"{prefix}.misses", self.misses, **labels)
        metrics.inc(f"{prefix}.evictions", self.evictions, **labels)
        metrics.inc(f"{prefix}.writes", self.writes, **labels)
