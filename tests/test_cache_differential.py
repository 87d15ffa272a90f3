"""Differential tests: FastSetAssocCache vs. the SetAssocCache oracle.

The simulator's L2 must be *bit-identical* to the list-based oracle in
``tests/oracles.py``, not approximately equal: for any access stream
both engines must report the same per-access hit/miss outcomes, the
same aggregate counters (hits, misses, evictions, writes), and the
same final tag + LRU state.
Every test here replays one stream through both engines and compares
all three.

Streams cover the adversarial corners of a set-associative LRU:
thrash exactly at capacity, single-set conflict storms (hash disabled
so every line aliases), write-allocate mixes, immediate re-reference
runs (the fast engine collapses these), and cross-launch persistence
with ``touch_many`` warming and ``flush`` in between.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.fast_cache import FastSetAssocCache
from tests.oracles import SetAssocCache

GEOMETRIES = [
    # (num_sets, assoc, hash_sets)
    (16, 4, True),
    (16, 4, False),
    (64, 2, True),
    (8, 1, True),  # direct-mapped
    (1, 8, False),  # fully associative single set
    (7, 3, True),  # non-power-of-two sets
]


def make_pair(num_sets=16, assoc=4, hash_sets=True):
    ref = SetAssocCache(num_sets, assoc, hash_sets=hash_sets)
    fast = FastSetAssocCache(num_sets, assoc, hash_sets=hash_sets)
    return ref, fast


def canonical_state(cache):
    """Per-set LRU->MRU line lists, directly comparable across engines."""
    return [list(s) for s in cache.clone_state()]


def replay_both(ref, fast, lines, writes=None):
    """Replay one stream through both engines; return the two hit masks."""
    lines = np.asarray(lines, dtype=np.int64)
    if writes is None:
        writes = np.zeros(lines.size, dtype=bool)
    writes = np.asarray(writes, dtype=bool)
    ref_mask = np.fromiter(
        (ref.access(int(l), bool(w)) for l, w in zip(lines, writes)),
        dtype=bool,
        count=lines.size,
    )
    fast_mask = fast.replay_arrays(lines, writes)
    return ref_mask, fast_mask


def assert_identical(ref, fast, lines, writes=None):
    ref_mask, fast_mask = replay_both(ref, fast, lines, writes)
    np.testing.assert_array_equal(ref_mask, fast_mask)
    assert ref.stats.snapshot() == fast.stats.snapshot()
    assert canonical_state(ref) == canonical_state(fast)
    assert len(ref) == len(fast)


class TestRandomizedStreams:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_random(self, geometry, seed):
        num_sets, assoc, hash_sets = geometry
        gen = np.random.default_rng(seed)
        ref, fast = make_pair(num_sets, assoc, hash_sets)
        # Working set ~2x capacity: plenty of hits AND evictions.
        universe = 2 * num_sets * assoc
        lines = gen.integers(0, universe, size=4000, dtype=np.int64)
        writes = gen.random(4000) < 0.3
        assert_identical(ref, fast, lines, writes)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_skewed_hot_set(self, seed):
        """Zipf-ish reuse: a few hot lines plus a long random tail."""
        gen = np.random.default_rng(seed)
        ref, fast = make_pair(32, 4)
        hot = gen.integers(0, 64, size=3000, dtype=np.int64)
        cold = gen.integers(0, 1 << 40, size=1000, dtype=np.int64)
        lines = np.concatenate([hot, cold])
        gen.shuffle(lines)
        assert_identical(ref, fast, lines)

    def test_huge_line_ids(self):
        """Line ids near the top of the address space stay exact."""
        gen = np.random.default_rng(7)
        ref, fast = make_pair(16, 2)
        base = (1 << 50) + 12345
        lines = base + gen.integers(0, 256, size=2000, dtype=np.int64)
        assert_identical(ref, fast, lines)


class TestAdversarialStreams:
    def test_thrash_exactly_at_capacity(self):
        """Cyclic sweep over capacity+1 distinct lines: all-miss under LRU."""
        ref, fast = make_pair(8, 2, hash_sets=False)
        capacity = 8 * 2
        sweep = np.arange(capacity + 8, dtype=np.int64) * 8  # one set, wrap
        lines = np.tile(sweep, 20)
        assert_identical(ref, fast, lines)

    def test_cyclic_sweep_fits_capacity(self):
        """Sweep exactly capacity lines: steady-state all-hit."""
        ref, fast = make_pair(8, 4, hash_sets=False)
        sweep = np.arange(8 * 4, dtype=np.int64)
        lines = np.tile(sweep, 10)
        ref_mask, fast_mask = replay_both(ref, fast, lines)
        np.testing.assert_array_equal(ref_mask, fast_mask)
        assert ref.stats.snapshot() == fast.stats.snapshot()
        # Sanity on the scenario itself: only the cold pass misses.
        assert fast.stats.misses == 8 * 4
        assert fast.stats.evictions == 0

    def test_single_set_conflict_storm(self):
        """Every access aliases into set 0 (hash disabled)."""
        gen = np.random.default_rng(11)
        ref, fast = make_pair(16, 4, hash_sets=False)
        lines = gen.integers(0, 12, size=3000, dtype=np.int64) * 16
        writes = gen.random(3000) < 0.5
        assert_identical(ref, fast, lines, writes)

    def test_immediate_rereference_runs(self):
        """Long same-line runs exercise the fast engine's repeat collapse."""
        gen = np.random.default_rng(13)
        picks = gen.integers(0, 40, size=200, dtype=np.int64)
        runs = gen.integers(1, 30, size=200)
        lines = np.repeat(picks, runs)
        ref, fast = make_pair(4, 2)
        assert_identical(ref, fast, lines)

    def test_write_only_stream(self):
        """Write-allocate: writes move lines exactly like reads."""
        gen = np.random.default_rng(17)
        ref, fast = make_pair(16, 4)
        lines = gen.integers(0, 200, size=2000, dtype=np.int64)
        writes = np.ones(2000, dtype=bool)
        assert_identical(ref, fast, lines, writes)
        assert fast.stats.writes == 2000

    def test_alternating_ping_pong(self):
        """Two lines in one set with assoc=1: every access evicts."""
        ref, fast = make_pair(4, 1, hash_sets=False)
        lines = np.array([0, 4, 0, 4, 0, 4, 0, 4] * 50, dtype=np.int64)
        assert_identical(ref, fast, lines)
        assert fast.stats.hits == 0


class TestCrossLaunchPersistence:
    def test_state_persists_across_replays(self):
        """Several replay calls share way state, like launches share L2."""
        gen = np.random.default_rng(19)
        ref, fast = make_pair(32, 4)
        for _ in range(5):
            lines = gen.integers(0, 400, size=800, dtype=np.int64)
            writes = gen.random(800) < 0.2
            assert_identical(ref, fast, lines, writes)

    def test_touch_many_warming_matches(self):
        """touch_many installs identically and records no statistics."""
        gen = np.random.default_rng(23)
        ref, fast = make_pair(32, 4)
        warm = range(0, 300)
        ref.touch_many(warm)
        fast.touch_many(warm)
        assert ref.stats.snapshot() == fast.stats.snapshot() == (0, 0, 0, 0)
        assert canonical_state(ref) == canonical_state(fast)
        lines = gen.integers(0, 400, size=1000, dtype=np.int64)
        assert_identical(ref, fast, lines)

    def test_flush_between_launches(self):
        gen = np.random.default_rng(29)
        ref, fast = make_pair(16, 4)
        lines = gen.integers(0, 150, size=600, dtype=np.int64)
        assert_identical(ref, fast, lines)
        ref.flush()
        fast.flush()
        assert canonical_state(ref) == canonical_state(fast)
        assert len(fast) == 0
        # Stats survive the flush; the next replay starts cold.
        assert_identical(ref, fast, lines)

    def test_clone_restore_roundtrip(self):
        gen = np.random.default_rng(31)
        ref, fast = make_pair(16, 4)
        lines = gen.integers(0, 150, size=500, dtype=np.int64)
        assert_identical(ref, fast, lines)
        saved = fast.clone_state()
        assert canonical_state(ref) == saved  # formats are interchangeable
        probe = gen.integers(0, 150, size=500, dtype=np.int64)
        assert_identical(ref, fast, probe)
        ref.restore_state(saved)
        fast.restore_state(saved)
        assert canonical_state(fast) == saved
        # After restoring, both engines continue in lockstep.
        assert_identical(ref, fast, probe)


class TestScalarApiParity:
    def test_access_and_contains(self):
        ref, fast = make_pair(8, 2)
        for line in [1, 5, 1, 9, 33, 5, 1, 64, 9]:
            assert ref.access(line) == fast.access(line)
            assert ref.contains(line) == fast.contains(line)
        assert ref.stats.snapshot() == fast.stats.snapshot()

    def test_access_stream_tuple_api(self):
        gen = np.random.default_rng(37)
        ref, fast = make_pair(16, 4)
        stream = [
            (int(l), bool(w))
            for l, w in zip(
                gen.integers(0, 200, size=1500), gen.random(1500) < 0.4
            )
        ]
        assert ref.access_stream(stream) == fast.access_stream(stream)
        assert ref.stats.snapshot() == fast.stats.snapshot()
        assert canonical_state(ref) == canonical_state(fast)

    def test_empty_replay(self):
        ref, fast = make_pair()
        mask = fast.replay_arrays(np.zeros(0, dtype=np.int64))
        assert mask.size == 0
        assert fast.stats.snapshot() == ref.stats.snapshot() == (0, 0, 0, 0)

    def test_resident_lines_agree_as_sets(self):
        gen = np.random.default_rng(41)
        ref, fast = make_pair(16, 4)
        lines = gen.integers(0, 120, size=700, dtype=np.int64)
        replay_both(ref, fast, lines)
        assert sorted(ref.resident_lines()) == sorted(fast.resident_lines())


class TestSimulatorBackendParity:
    """End-to-end: ``GpuSimulator.tally_launch`` against an oracle tally.

    The simulator replays a whole launch as one batched call.  The
    oracle replays each block's ``block_line_stream`` through
    :class:`SetAssocCache` in dispatch order and assigns blocks to SMs
    round-robin.  Per-SM tallies, cache counters and the final cache
    state must agree, for full grids and sub-kernel block lists alike,
    with the L2 persisting across launches.
    """

    def _apps(self):
        from repro.graph.buffers import BufferAllocator
        from repro.kernels.pointwise import MemsetKernel, ScaleKernel

        alloc = BufferAllocator()
        src = alloc.new_image("src", 96, 96)
        out = alloc.new_image("out", 96, 96)
        return MemsetKernel(src, 1.0), ScaleKernel(src, out, 2.0)

    @staticmethod
    def _oracle_tally(cache, spec, kernel, blocks):
        from repro.gpusim import LaunchTally

        nsms = spec.num_sms
        issue = [0.0] * nsms
        hits = [0] * nsms
        misses = [0] * nsms
        for i, bid in enumerate(blocks):
            sm = i % nsms
            h, m = cache.access_stream(
                kernel.block_line_stream(bid, spec.line_shift)
            )
            bx, by = kernel.block_coords(bid)
            issue[sm] += kernel.block_instrs(bx, by) / spec.schedulers_per_sm
            hits[sm] += h
            misses[sm] += m
        return LaunchTally(
            kernel_name=kernel.name,
            num_blocks=len(blocks),
            threads_per_block=kernel.threads_per_block,
            resident_warps=spec.resident_warps(
                kernel.threads_per_block, len(blocks)
            ),
            per_sm_issue=issue,
            per_sm_hits=hits,
            per_sm_misses=misses,
            line_bytes=spec.l2_line_bytes,
        )

    def _assert_launches_agree(self, launches):
        from repro.gpusim import GpuSimulator

        sim = GpuSimulator()
        oracle = SetAssocCache.from_spec(sim.spec)
        for kernel, blocks in launches:  # the L2 persists across launches
            tally = sim.tally_launch(kernel, blocks)
            expected = self._oracle_tally(
                oracle, sim.spec, kernel,
                range(kernel.num_blocks) if blocks is None else blocks,
            )
            assert tally == expected
        assert sim.l2.stats.snapshot() == oracle.stats.snapshot()
        assert sim.l2.clone_state() == oracle.clone_state()

    def test_tally_launch_parity(self):
        memset, scale = self._apps()
        self._assert_launches_agree([(memset, None), (scale, None)])

    def test_sub_kernel_tally_parity(self):
        memset, scale = self._apps()
        n = scale.num_blocks
        self._assert_launches_agree([
            (memset, range(n // 3, n)),
            (scale, range(0, n // 2)),
            (scale, list(range(n - 1, 0, -3))),
            (memset, [5, 1, 4, 1, 5, 9, 2, 6]),
        ])

    def test_launch_timing_parity(self):
        from repro.gpusim import GpuSimulator, time_launch

        _, scale = self._apps()
        sim = GpuSimulator()
        expected = self._oracle_tally(
            SetAssocCache.from_spec(sim.spec), sim.spec, scale,
            range(scale.num_blocks),
        )
        timing = time_launch(expected, sim.spec, sim.dram, sim.freq)
        assert sim.launch(scale).time_us == timing.time_us


class TestAttributionBitIdentity:
    """Attribution mode must be invisible to the replay contract.

    An attributor-attached pair must produce exactly the masks, stats
    and final state of an unobserved pair — the attribution-off path is
    already covered by every other test in this file, so together these
    pin both sides of the opt-in.
    """

    def _attach(self, cache):
        from repro.graph.buffers import BufferAllocator
        from repro.obs.audit import MissAttributor

        alloc = BufferAllocator()
        buf = alloc.new("data", 4096)
        attr = MissAttributor([buf], 7, cache.capacity_lines)
        cache.attach_attribution(attr)
        attr.begin_launch("k", 1)
        return attr

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_observed_pair_matches_plain_pair(self, geometry):
        num_sets, assoc, hash_sets = geometry
        gen = np.random.default_rng(99)
        universe = 2 * num_sets * assoc
        lines = gen.integers(0, universe, size=2500, dtype=np.int64)
        writes = gen.random(2500) < 0.3

        plain_ref, plain_fast = make_pair(num_sets, assoc, hash_sets)
        plain_masks = replay_both(plain_ref, plain_fast, lines, writes)

        obs_ref, obs_fast = make_pair(num_sets, assoc, hash_sets)
        self._attach(obs_ref)
        self._attach(obs_fast)
        obs_masks = replay_both(obs_ref, obs_fast, lines, writes)

        np.testing.assert_array_equal(plain_masks[0], obs_masks[0])
        np.testing.assert_array_equal(plain_masks[1], obs_masks[1])
        assert plain_ref.stats.snapshot() == obs_ref.stats.snapshot()
        assert plain_fast.stats.snapshot() == obs_fast.stats.snapshot()
        assert canonical_state(plain_ref) == canonical_state(obs_ref)
        assert canonical_state(plain_fast) == canonical_state(obs_fast)

    def test_observed_stream_and_flush(self):
        """access_stream's attribution branch and flush hooks stay identical."""
        gen = np.random.default_rng(5)
        lines = gen.integers(0, 96, size=1200, dtype=np.int64)
        stream = [(int(l), bool(i % 3 == 0)) for i, l in enumerate(lines)]

        plain_ref, plain_fast = make_pair(16, 4)
        obs_ref, obs_fast = make_pair(16, 4)
        attrs = [self._attach(obs_ref), self._attach(obs_fast)]
        for caches in ((plain_ref, plain_fast), (obs_ref, obs_fast)):
            for cache in caches:
                cache.access_stream(stream[:600])
                cache.flush()
                cache.access_stream(stream[600:])
        assert plain_ref.stats.snapshot() == obs_ref.stats.snapshot()
        assert plain_fast.stats.snapshot() == obs_fast.stats.snapshot()
        assert canonical_state(obs_ref) == canonical_state(obs_fast)
        # The flush reset the reuse tracker: both attributors agree and
        # classified every post-flush first touch as cold again.
        assert attrs[0].class_counts == attrs[1].class_counts
        assert attrs[0].total_accesses == len(stream)
