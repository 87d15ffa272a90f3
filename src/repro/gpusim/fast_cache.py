"""The simulated L2: a vectorized set-associative LRU cache.

:class:`FastSetAssocCache` models the GPU's shared L2 at line
granularity — LRU replacement, allocate on read and write misses
(write-allocate), no sectoring — because the scheduler in the paper
only relies on the first-order property that a working set larger than
the cache thrashes while a smaller one does not.  It replays whole line
streams in batched NumPy operations instead of one Python-level
``list.index`` loop per transaction.

The list-based engine it replaced lives on as a test oracle
(``tests/oracles.py``).  The differential, property and golden suites
hold this engine to it: same hits/misses/evictions/writes counters,
same per-access hit/miss outcomes, and the same final tag + LRU state
(:meth:`clone_state` of both engines compare equal after any replay).

How the vectorization works
---------------------------
Cache sets are independent: the only ordering that matters for LRU is
the order of accesses *within* a set.  A batch of N accesses is
therefore

1. mapped to set indices in one vectorized hash/modulo pass,
2. stably sorted by set index (preserving stream order inside each
   set), and
3. replayed in *rounds*: round ``r`` processes the r-th access of
   every set simultaneously.  All accesses in a round touch distinct
   sets, so tag compare, LRU-victim selection (``argmin`` over way
   timestamps) and the way update are plain array operations.

The number of rounds is the maximum number of accesses any single set
receives in the batch — small for real kernels, whose lines spread
across many sets, and degenerate (but still correct) for a single-set
conflict storm.  State is a ``(num_sets, assoc)`` tag matrix plus a
monotonically increasing per-way timestamp; invalid ways carry
timestamp 0 so ``argmin`` fills empty ways before evicting the true
LRU way, exactly like the oracle's append-then-pop.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.cache import CacheStats

#: Sentinel tag for an empty way (no real line id can take this value:
#: line ids are byte addresses >> line_shift and must exceed INT64_MIN).
_INVALID_TAG = np.iinfo(np.int64).min


class FastSetAssocCache:
    """NumPy-vectorized set-associative LRU cache over line ids.

    Scalar and stream entry points (``access``, ``access_stream``,
    ``touch_many``, ``contains``, ``flush``,
    ``clone_state``/``restore_state``, ...) sit beside the batched
    :meth:`replay_arrays`, which the launch simulator uses to replay a
    whole launch in one call.

    Line ids must fit in a signed 64-bit integer (they are byte
    addresses right-shifted by the line size, so this is never a
    constraint in practice).
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
        self._fold_shift = max(1, num_sets.bit_length() - 1)
        self.stats = CacheStats()
        # Optional passive observer (repro.obs.audit.MissAttributor);
        # fed the per-access hit mask of every stats-recorded replay.
        self.attribution = None
        # Way state: tag per way and an LRU timestamp.  Timestamps
        # strictly increase with every round of every replay; invalid
        # ways carry the sentinel tag and timestamp 0, so argmin fills
        # empty ways before evicting the true LRU way.
        self._tags = np.full((num_sets, assoc), _INVALID_TAG, dtype=np.int64)
        self._stamps = np.zeros((num_sets, assoc), dtype=np.int64)
        self._time = 0

    @classmethod
    def from_spec(cls, spec) -> "FastSetAssocCache":
        """Build the L2 described by a :class:`repro.gpusim.arch.GpuSpec`."""
        return cls(spec.l2_num_sets, spec.l2_assoc, spec.l2_line_bytes)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_bytes

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def __len__(self) -> int:
        return int(np.count_nonzero(self._tags != _INVALID_TAG))

    def set_index(self, line: int) -> int:
        """Cache set of a line id (hashed unless hash_sets=False)."""
        if self.hash_sets:
            shift = self._fold_shift
            line = line ^ (line >> shift) ^ (line >> (2 * shift))
        return line % self.num_sets

    def _set_index_array(self, lines: np.ndarray) -> np.ndarray:
        if self.hash_sets:
            shift = self._fold_shift
            lines = lines ^ (lines >> shift) ^ (lines >> (2 * shift))
        return lines % self.num_sets

    def attach_attribution(self, attributor) -> None:
        """Attach (or detach, with None) a passive per-access observer.

        The observer sees every statistics-recorded access in stream
        order (``touch_many`` warming excluded) and never mutates cache
        state, so hit/miss outcomes and counters are unchanged.
        """
        self.attribution = attributor

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(
        self,
        lines: np.ndarray,
        writes: Optional[np.ndarray],
        record_stats: bool = True,
    ) -> np.ndarray:
        """Replay ``lines`` in order; returns the per-access hit mask.

        ``writes`` may be None (counts as all-reads); write-allocate
        means writes and reads move lines identically, so it only
        feeds the ``writes`` counter.
        """
        n = lines.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        sets = self._set_index_array(lines)
        # Stable sort by set (radix for ints); within a set, accesses
        # keep stream order.
        order = np.argsort(sets, kind="stable")
        s_sorted = sets[order]
        l_sorted = lines[order]
        # A per-set *immediate repeat* (same line as the previous access
        # to the same set) is always an LRU hit that leaves the line at
        # MRU — resolve these without touching way state at all.
        repeat = np.zeros(n, dtype=bool)
        np.logical_and(
            s_sorted[1:] == s_sorted[:-1],
            l_sorted[1:] == l_sorted[:-1],
            out=repeat[1:],
        )
        hit_sorted = repeat.copy()
        fresh = np.flatnonzero(~repeat)
        s_sorted = s_sorted[fresh]
        l_sorted = l_sorted[fresh]
        m = fresh.size
        # Rank each remaining access within its set, then stably sort by
        # rank: round r — the r-th fresh access of every set — becomes
        # one contiguous slice, and all accesses in a round touch
        # distinct sets.
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        np.not_equal(s_sorted[1:], s_sorted[:-1], out=boundary[1:])
        group_start = np.flatnonzero(boundary)
        if group_start.size == m:
            # Every set occurs at most once: one round, no second sort.
            by_round = None
            s_rounds = s_sorted
            l_rounds = l_sorted
            round_sizes = np.array([m])
            offsets = np.array([0, m])
        else:
            counts = np.diff(np.append(group_start, m))
            rank = np.arange(m, dtype=np.int64) - np.repeat(group_start, counts)
            by_round = np.argsort(rank, kind="stable")
            s_rounds = s_sorted[by_round]
            l_rounds = l_sorted[by_round]
            round_sizes = np.bincount(rank[by_round])
            offsets = np.concatenate(([0], np.cumsum(round_sizes)))
        hits_rounds = np.empty(m, dtype=bool)

        tags = self._tags
        stamps = self._stamps
        time = self._time
        row_ids = np.arange(int(round_sizes[0]))
        evictions = 0
        for r in range(len(round_sizes)):
            a, b = offsets[r], offsets[r + 1]
            s = s_rounds[a:b]
            line = l_rounds[a:b]
            tag_rows = tags[s]
            match = tag_rows == line[:, None]
            hit_way = match.argmax(axis=1)
            is_hit = match[row_ids[: b - a], hit_way]
            hits_rounds[a:b] = is_hit
            time += 1
            miss = np.flatnonzero(~is_hit)
            way = hit_way
            if miss.size:
                # Victim: the way with the smallest timestamp — an
                # empty way (stamp 0) when one exists, else the LRU
                # way (the oracle's pop(0)).
                ms = s[miss]
                victim = stamps[ms].argmin(axis=1)
                evictions += int(
                    np.count_nonzero(tags[ms, victim] != _INVALID_TAG)
                )
                tags[ms, victim] = line[miss]
                way = hit_way.copy()
                way[miss] = victim
            stamps[s, way] = time
        self._time = time
        if by_round is None:
            hit_fresh = hits_rounds
        else:
            hit_fresh = np.empty(m, dtype=bool)
            hit_fresh[by_round] = hits_rounds
        hit_sorted[fresh] = hit_fresh
        hits_total = int(np.count_nonzero(hit_sorted))

        hit_mask = np.empty(n, dtype=bool)
        hit_mask[order] = hit_sorted
        if record_stats:
            stats = self.stats
            stats.hits += hits_total
            stats.misses += n - hits_total
            stats.evictions += evictions
            if writes is not None:
                stats.writes += int(np.count_nonzero(writes))
            if self.attribution is not None:
                self.attribution.observe_batch(lines, writes, hit_mask)
        return hit_mask

    def replay_arrays(
        self, lines: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched replay; returns a boolean per-access hit mask.

        Global stats are updated; slice/segment the mask to attribute
        hits to sub-streams (the launch simulator does this per block).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != lines.shape:
                raise ConfigurationError("lines/writes length mismatch")
        return self._replay(lines, writes)

    def access(self, line: int, is_write: bool = False) -> bool:
        """Access one line; returns True on hit (scalar convenience path)."""
        mask = self._replay(
            np.array([line], dtype=np.int64),
            np.array([is_write], dtype=bool),
        )
        return bool(mask[0])

    def access_stream(self, stream: Sequence[Tuple[int, bool]]) -> Tuple[int, int]:
        """Replay ``(line, is_write)`` pairs; returns this stream's (hits, misses)."""
        n = len(stream)
        if n == 0:
            return 0, 0
        arr = np.array(stream, dtype=np.int64).reshape(n, 2)
        hit_mask = self._replay(
            np.ascontiguousarray(arr[:, 0]), arr[:, 1] != 0
        )
        hits = int(np.count_nonzero(hit_mask))
        return hits, n - hits

    def touch_many(self, lines: Iterable[int]) -> None:
        """Install lines without recording statistics (cache warming)."""
        if isinstance(lines, range):
            arr = np.arange(lines.start, lines.stop, lines.step, dtype=np.int64)
        elif isinstance(lines, np.ndarray):
            arr = np.ascontiguousarray(lines, dtype=np.int64)
        else:
            arr = np.fromiter(lines, dtype=np.int64)
        self._replay(arr, None, record_stats=False)

    # ------------------------------------------------------------------
    # Introspection / state
    # ------------------------------------------------------------------
    def contains(self, line: int) -> bool:
        """True if the line is currently cached (does not touch LRU state)."""
        return bool(np.any(self._tags[self.set_index(line)] == line))

    def resident_lines(self) -> List[int]:
        """All currently cached line ids (unordered across sets)."""
        return [int(t) for t in self._tags[self._tags != _INVALID_TAG]]

    def flush(self) -> None:
        """Invalidate the whole cache (statistics are preserved)."""
        self._tags[:] = _INVALID_TAG
        self._stamps[:] = 0
        if self.attribution is not None:
            self.attribution.on_flush()

    def clone_state(self) -> List[List[int]]:
        """Per-set resident lines in LRU->MRU order.

        The format (and content, after identical replays) matches the
        test oracle's ``clone_state``, which is what the differential
        test suite compares.
        """
        out: List[List[int]] = []
        tags = self._tags
        stamps = self._stamps
        for s in range(self.num_sets):
            ways = np.flatnonzero(tags[s] != _INVALID_TAG)
            ways = ways[np.argsort(stamps[s, ways], kind="stable")]
            out.append([int(t) for t in tags[s, ways]])
        return out

    def restore_state(self, state: List[List[int]]) -> None:
        if len(state) != self.num_sets:
            raise ConfigurationError("state does not match cache geometry")
        self._tags[:] = _INVALID_TAG
        self._stamps[:] = 0
        time = self._time
        for s, cset in enumerate(state):
            k = len(cset)
            if k > self.assoc:
                raise ConfigurationError("state does not match cache geometry")
            if k:
                self._tags[s, :k] = cset
                self._stamps[s, :k] = np.arange(time + 1, time + k + 1)
                time += k
        self._time = time

    def __repr__(self) -> str:
        return (
            f"FastSetAssocCache(sets={self.num_sets}, assoc={self.assoc}, "
            f"line={self.line_bytes}B, resident={len(self)}/{self.capacity_lines})"
        )
