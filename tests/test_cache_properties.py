"""Property-based tests for the cache simulator (hypothesis).

The reference model is a per-set ordered list with explicit LRU
bookkeeping — an independent (slower, obviously correct) implementation
the optimized simulator must agree with on arbitrary access streams.
"""

from collections import OrderedDict
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import SetAssocCache


class ReferenceLru:
    """Oracle: per-set OrderedDict with move-to-end on hit.

    Takes the set-index function as a parameter so the same oracle
    verifies both the plain modulo mapping and the hashed mapping.
    """

    def __init__(self, num_sets: int, assoc: int, index=None):
        self.num_sets = num_sets
        self.assoc = assoc
        self.index = index if index is not None else (lambda line: line % num_sets)
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, line: int) -> bool:
        cset = self.sets[self.index(line)]
        if line in cset:
            cset.move_to_end(line)
            return True
        cset[line] = True
        if len(cset) > self.assoc:
            cset.popitem(last=False)
        return False


geometries = st.tuples(st.integers(1, 8), st.integers(1, 8))
streams = st.lists(
    st.tuples(st.integers(0, 63), st.booleans()), min_size=0, max_size=300
)


@given(geometry=geometries, stream=streams)
@settings(max_examples=200, deadline=None)
def test_matches_reference_lru(geometry, stream):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc, hash_sets=False)
    oracle = ReferenceLru(num_sets, assoc)
    for line, is_write in stream:
        assert cache.access(line, is_write) == oracle.access(line)


@given(geometry=geometries, stream=streams)
@settings(max_examples=200, deadline=None)
def test_hashed_mode_matches_reference_lru(geometry, stream):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc, hash_sets=True)
    oracle = ReferenceLru(num_sets, assoc, index=cache.set_index)
    for line, is_write in stream:
        assert cache.access(line, is_write) == oracle.access(line)


@given(geometry=geometries, lines=st.lists(st.integers(0, 10**9), max_size=64))
@settings(max_examples=100, deadline=None)
def test_hashed_index_in_range(geometry, lines):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc, hash_sets=True)
    for line in lines:
        assert 0 <= cache.set_index(line) < num_sets


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_capacity_invariant(geometry, stream):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc)
    for line, is_write in stream:
        cache.access(line, is_write)
        assert len(cache) <= cache.capacity_lines
        resident = cache.resident_lines()
        assert len(resident) == len(set(resident))  # no duplicates


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_hit_implies_previously_accessed(geometry, stream):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc)
    seen = set()
    for line, is_write in stream:
        hit = cache.access(line, is_write)
        if hit:
            assert line in seen
        seen.add(line)


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_stats_account_every_access(geometry, stream):
    num_sets, assoc = geometry
    cache = SetAssocCache(num_sets, assoc)
    for line, is_write in stream:
        cache.access(line, is_write)
    assert cache.stats.accesses == len(stream)
    assert cache.stats.writes == sum(1 for _, w in stream if w)


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_stream_replay_equals_scalar_replay(geometry, stream):
    num_sets, assoc = geometry
    bulk = SetAssocCache(num_sets, assoc)
    scalar = SetAssocCache(num_sets, assoc)
    hits, misses = bulk.access_stream(stream)
    scalar_hits = sum(scalar.access(line, w) for line, w in stream)
    assert hits == scalar_hits
    assert hits + misses == len(stream)
    assert sorted(bulk.resident_lines()) == sorted(scalar.resident_lines())


@given(
    geometry=geometries,
    warm=st.lists(st.integers(0, 63), max_size=50),
    probe=st.integers(0, 63),
)
@settings(max_examples=100, deadline=None)
def test_touch_many_equivalent_to_silent_accesses(geometry, warm, probe):
    num_sets, assoc = geometry
    warmed = SetAssocCache(num_sets, assoc)
    warmed.touch_many(warm)
    accessed = SetAssocCache(num_sets, assoc)
    for line in warm:
        accessed.access(line)
    assert warmed.contains(probe) == accessed.contains(probe)
    assert warmed.stats.accesses == 0
