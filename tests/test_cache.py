"""Unit tests for the set-associative LRU cache simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.arch import GpuSpec
from repro.gpusim.cache import CacheStats
from tests.oracles import SetAssocCache


class TestBasics:
    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(0, 4)
        with pytest.raises(ConfigurationError):
            SetAssocCache(4, 0)

    def test_from_spec(self):
        spec = GpuSpec()
        cache = SetAssocCache.from_spec(spec)
        assert cache.capacity_bytes == spec.l2_bytes
        assert cache.capacity_lines == spec.l2_num_lines

    def test_cold_miss_then_hit(self):
        cache = SetAssocCache(4, 2)
        assert cache.access(10) is False
        assert cache.access(10) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_write_allocates(self):
        cache = SetAssocCache(4, 2)
        assert cache.access(3, is_write=True) is False
        assert cache.access(3) is True
        assert cache.stats.writes == 1

    def test_len_counts_resident(self):
        cache = SetAssocCache(4, 2)
        for line in range(5):
            cache.access(line)
        assert len(cache) == 5


class TestLru:
    def test_eviction_order_is_lru(self):
        cache = SetAssocCache(1, 2)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 1 is now LRU
        cache.access(2)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(2)
        assert cache.stats.evictions == 1

    def test_set_isolation(self):
        cache = SetAssocCache(2, 1, hash_sets=False)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.contains(0) and cache.contains(1)
        cache.access(2)  # set 0: evicts 0, not 1
        assert not cache.contains(0)
        assert cache.contains(1)

    def test_capacity_never_exceeded(self):
        cache = SetAssocCache(4, 2)
        for line in range(100):
            cache.access(line)
        assert len(cache) <= cache.capacity_lines

    def test_working_set_smaller_than_cache_always_hits(self):
        cache = SetAssocCache(8, 4, hash_sets=False)
        lines = list(range(16))  # 16 lines over 8 sets of 4: fits.
        for line in lines:
            cache.access(line)
        for _ in range(3):
            for line in lines:
                assert cache.access(line) is True

    def test_working_set_larger_than_direct_set_thrashes(self):
        cache = SetAssocCache(1, 2)
        # Three lines in a 2-way set, round robin: always misses.
        for _ in range(3):
            for line in (0, 1, 2):
                pass
        hits_before = cache.stats.hits
        for _ in range(3):
            for line in (0, 1, 2):
                cache.access(line)
        assert cache.stats.hits == hits_before


class TestBulkOps:
    def test_access_stream_matches_scalar(self):
        stream = [(i % 7, i % 3 == 0) for i in range(50)]
        a = SetAssocCache(2, 2)
        b = SetAssocCache(2, 2)
        hits, misses = a.access_stream(stream)
        scalar_hits = sum(1 for line, w in stream if b.access(line, w))
        assert hits == scalar_hits
        assert hits + misses == len(stream)
        assert a.stats.hits == b.stats.hits
        assert a.stats.misses == b.stats.misses
        assert a.stats.writes == b.stats.writes
        assert a.resident_lines() == b.resident_lines()

    def test_touch_many_warms_without_stats(self):
        cache = SetAssocCache(4, 2)
        cache.touch_many([1, 2, 3])
        assert cache.stats.accesses == 0
        assert cache.access(1) is True

    def test_flush(self):
        cache = SetAssocCache(4, 2)
        cache.access(1)
        cache.flush()
        assert len(cache) == 0
        assert cache.stats.misses == 1  # stats preserved

    def test_clone_restore_state(self):
        cache = SetAssocCache(4, 2)
        for line in range(6):
            cache.access(line)
        snapshot = cache.clone_state()
        cache.access(100)
        cache.restore_state(snapshot)
        assert sorted(cache.resident_lines()) == list(range(6))

    def test_restore_rejects_wrong_geometry(self):
        cache = SetAssocCache(4, 2)
        with pytest.raises(ConfigurationError):
            cache.restore_state([[]])


class TestStats:
    def test_hashed_spreads_power_of_two_strides(self):
        """Row-start lines (stride 32) must not alias into one set."""
        hashed = SetAssocCache(32, 2, hash_sets=True)
        plain = SetAssocCache(32, 2, hash_sets=False)
        stride_lines = [32 * i for i in range(48)]
        hashed_sets = {hashed.set_index(l) for l in stride_lines}
        plain_sets = {plain.set_index(l) for l in stride_lines}
        assert plain_sets == {0}
        assert len(hashed_sets) > 8

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_merged(self):
        merged = CacheStats(1, 2, 3, 4).merged(CacheStats(10, 20, 30, 40))
        assert (merged.hits, merged.misses) == (11, 22)
        assert (merged.evictions, merged.writes) == (33, 44)

    def test_reset(self):
        stats = CacheStats(1, 2, 3, 4)
        stats.reset()
        assert stats.accesses == 0
