"""Test oracle: the list-based set-associative LRU cache.

:class:`SetAssocCache` is the reference implementation of the simulated
L2 — one Python-level ``list.index`` per transaction, MRU at the end of
each set's list.  The simulator itself replays through the vectorized
:class:`repro.gpusim.fast_cache.FastSetAssocCache`; this module keeps
the simple engine alive as the oracle that engine is proven against.
The differential (``test_cache_differential.py``), property
(``test_cache_properties.py``, ``test_fast_cache_properties.py``) and
audit suites replay the same streams through both and require equal
counters, per-access outcomes and ``clone_state`` snapshots.

:func:`use_oracle_l2` swaps the oracle into :class:`GpuSimulator` for
one test, so whole experiments (the golden figure and schedule suites)
can be replayed through it as well.

The replacement policy is deliberately simple — LRU, allocate on read
and write misses (write-allocate), no sectoring — because the scheduler
in the paper only relies on the first-order property that a working set
larger than the cache thrashes while a smaller one does not.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.cache import CacheStats


class SetAssocCache:
    """A set-associative cache with LRU replacement over line ids.

    Parameters
    ----------
    num_sets:
        Number of cache sets (power of two recommended but not required).
    assoc:
        Associativity (ways per set).
    line_bytes:
        Line size in bytes; only used for capacity/footprint reporting.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        line_bytes: int = 128,
        hash_sets: bool = True,
    ):
        if num_sets <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigurationError("cache geometry must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hash_sets = hash_sets
        # XOR-fold the bits above the index into the index, as real GPU
        # L2s do, so power-of-two strides (matrix columns, row starts)
        # do not all alias into a handful of sets.  The fold width is
        # the index width, precomputed for the hot path.
        self._fold_shift = max(1, num_sets.bit_length() - 1)
        self.stats = CacheStats()
        # Optional passive observer (repro.obs.audit.MissAttributor).
        # Must stay None on measurement paths: with an attributor
        # attached, access_stream drops to a per-access loop.
        self.attribution = None
        # Each set is a list of line ids, LRU at index 0, MRU at the end.
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]

    def set_index(self, line: int) -> int:
        """Cache set of a line id (hashed unless hash_sets=False)."""
        if self.hash_sets:
            shift = self._fold_shift
            line = line ^ (line >> shift) ^ (line >> (2 * shift))
        return line % self.num_sets

    def attach_attribution(self, attributor) -> None:
        """Attach (or detach, with None) a passive per-access observer.

        The observer sees every statistics-recorded access in stream
        order (``touch_many`` warming excluded) and never mutates cache
        state, so hit/miss outcomes and counters are unchanged.
        """
        self.attribution = attributor

    @classmethod
    def from_spec(cls, spec) -> "SetAssocCache":
        """Build the L2 described by a :class:`repro.gpusim.arch.GpuSpec`."""
        return cls(spec.l2_num_sets, spec.l2_assoc, spec.l2_line_bytes)

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_bytes

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def access(self, line: int, is_write: bool = False) -> bool:
        """Access one line; returns True on hit.

        Misses allocate the line (write-allocate policy) and evict the
        LRU way when the set is full.
        """
        cset = self._sets[self.set_index(line)]
        stats = self.stats
        if is_write:
            stats.writes += 1
        try:
            idx = cset.index(line)
        except ValueError:
            stats.misses += 1
            cset.append(line)
            if len(cset) > self.assoc:
                cset.pop(0)
                stats.evictions += 1
            if self.attribution is not None:
                self.attribution.observe(line, is_write, False)
            return False
        stats.hits += 1
        if idx != len(cset) - 1:
            cset.pop(idx)
            cset.append(line)
        if self.attribution is not None:
            self.attribution.observe(line, is_write, True)
        return True

    def access_stream(self, stream: Sequence[Tuple[int, bool]]) -> Tuple[int, int]:
        """Replay a stream of ``(line, is_write)`` pairs.

        Returns ``(hits, misses)`` for this stream only (global stats are
        also updated).  Inlined version of :meth:`access` for speed.
        """
        if self.attribution is not None:
            # Attribution path: per-access, so the observer sees every
            # outcome in stream order.  The inlined loop below is the
            # measurement path and must stay untouched.
            access = self.access
            hits = 0
            misses = 0
            for line, is_write in stream:
                if access(line, is_write):
                    hits += 1
                else:
                    misses += 1
            return hits, misses
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        hashed = self.hash_sets
        shift = self._fold_shift
        shift2 = 2 * shift
        hits = 0
        misses = 0
        writes = 0
        evictions = 0
        for line, is_write in stream:
            if hashed:
                cset = sets[(line ^ (line >> shift) ^ (line >> shift2)) % num_sets]
            else:
                cset = sets[line % num_sets]
            if is_write:
                writes += 1
            try:
                idx = cset.index(line)
            except ValueError:
                misses += 1
                cset.append(line)
                if len(cset) > assoc:
                    cset.pop(0)
                    evictions += 1
            else:
                hits += 1
                if idx != len(cset) - 1:
                    cset.pop(idx)
                    cset.append(line)
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.writes += writes
        stats.evictions += evictions
        return hits, misses

    def contains(self, line: int) -> bool:
        """True if the line is currently cached (does not touch LRU state)."""
        return line in self._sets[self.set_index(line)]

    def touch_many(self, lines: Iterable[int]) -> None:
        """Install lines without recording statistics (cache warming)."""
        sets = self._sets
        assoc = self.assoc
        set_index = self.set_index
        for line in lines:
            cset = sets[set_index(line)]
            try:
                idx = cset.index(line)
            except ValueError:
                cset.append(line)
                if len(cset) > assoc:
                    cset.pop(0)
            else:
                if idx != len(cset) - 1:
                    cset.pop(idx)
                    cset.append(line)

    def resident_lines(self) -> List[int]:
        """All currently cached line ids (unordered across sets)."""
        out: List[int] = []
        for cset in self._sets:
            out.extend(cset)
        return out

    def flush(self) -> None:
        """Invalidate the whole cache (statistics are preserved)."""
        for cset in self._sets:
            cset.clear()
        if self.attribution is not None:
            self.attribution.on_flush()

    def clone_state(self) -> List[List[int]]:
        """Snapshot of the set contents (for save/restore in profiling)."""
        return [list(s) for s in self._sets]

    def restore_state(self, state: List[List[int]]) -> None:
        if len(state) != self.num_sets:
            raise ConfigurationError("state does not match cache geometry")
        self._sets = [list(s) for s in state]

    def __repr__(self) -> str:
        return (
            f"SetAssocCache(sets={self.num_sets}, assoc={self.assoc}, "
            f"line={self.line_bytes}B, resident={len(self)}/{self.capacity_lines})"
        )


class OracleL2(SetAssocCache):
    """The oracle behind the simulator's batched ``replay_arrays`` call.

    Each access goes through :meth:`SetAssocCache.access` in array
    order, so the hit mask and counters are the oracle's own.
    """

    def replay_arrays(
        self, lines: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        access = self.access
        if writes is None:
            outcomes = [access(line) for line in lines.tolist()]
        else:
            outcomes = [
                access(line, is_write)
                for line, is_write in zip(lines.tolist(), writes.tolist())
            ]
        return np.array(outcomes, dtype=bool)


def use_oracle_l2(monkeypatch) -> None:
    """Make every :class:`GpuSimulator` built in this test use the oracle L2."""
    monkeypatch.setattr("repro.gpusim.executor.FastSetAssocCache", OracleL2)
