"""Property-based tests for the vectorized replay engine (hypothesis).

Three families:

* **differential** — on arbitrary streams the fast engine's per-access
  outcomes, counters, and final state equal the reference engine's
  (the vectorized rounds decomposition is invisible);
* **determinism** — replaying the same stream always produces the same
  mask, and splitting one stream into arbitrary consecutive batches
  changes nothing (launch boundaries are invisible to the cache);
* **LRU stack property** — with the set mapping held fixed, growing
  associativity can only turn misses into hits: the bigger cache's
  miss set is a subset of the smaller's.  (Growing ``num_sets`` remaps
  lines to different sets, so no such inclusion holds there — size
  monotonicity is a per-set-mapping property, exactly as for real
  caches.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.fast_cache import FastSetAssocCache
from tests.oracles import SetAssocCache

geometries = st.tuples(st.integers(1, 8), st.integers(1, 8), st.booleans())
streams = st.lists(
    st.tuples(st.integers(0, 63), st.booleans()), min_size=0, max_size=300
)


def to_arrays(stream):
    lines = np.array([l for l, _ in stream], dtype=np.int64)
    writes = np.array([w for _, w in stream], dtype=bool)
    return lines, writes


@given(geometry=geometries, stream=streams)
@settings(max_examples=200, deadline=None)
def test_differential_vs_reference(geometry, stream):
    num_sets, assoc, hashed = geometry
    ref = SetAssocCache(num_sets, assoc, hash_sets=hashed)
    fast = FastSetAssocCache(num_sets, assoc, hash_sets=hashed)
    lines, writes = to_arrays(stream)
    mask = fast.replay_arrays(lines, writes)
    ref_mask = [ref.access(int(l), bool(w)) for l, w in stream]
    assert mask.tolist() == ref_mask
    assert ref.stats.snapshot() == fast.stats.snapshot()
    assert [list(s) for s in ref.clone_state()] == fast.clone_state()


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_replay_is_deterministic(geometry, stream):
    num_sets, assoc, hashed = geometry
    lines, writes = to_arrays(stream)
    masks, states = [], []
    for _ in range(2):
        cache = FastSetAssocCache(num_sets, assoc, hash_sets=hashed)
        masks.append(cache.replay_arrays(lines, writes).tolist())
        states.append(cache.clone_state())
    assert masks[0] == masks[1]
    assert states[0] == states[1]


@given(
    geometry=geometries,
    stream=streams,
    cut=st.integers(0, 300),
)
@settings(max_examples=100, deadline=None)
def test_batch_split_invariance(geometry, stream, cut):
    """One replay call == any split into consecutive replay calls."""
    num_sets, assoc, hashed = geometry
    lines, writes = to_arrays(stream)
    cut = min(cut, lines.size)
    whole = FastSetAssocCache(num_sets, assoc, hash_sets=hashed)
    split = FastSetAssocCache(num_sets, assoc, hash_sets=hashed)
    whole_mask = whole.replay_arrays(lines, writes)
    first = split.replay_arrays(lines[:cut], writes[:cut])
    second = split.replay_arrays(lines[cut:], writes[cut:])
    assert whole_mask.tolist() == first.tolist() + second.tolist()
    assert whole.stats.snapshot() == split.stats.snapshot()
    assert whole.clone_state() == split.clone_state()


@given(
    num_sets=st.integers(1, 8),
    assoc=st.integers(1, 6),
    extra=st.integers(1, 4),
    stream=streams,
)
@settings(max_examples=100, deadline=None)
def test_growing_associativity_only_adds_hits(num_sets, assoc, extra, stream):
    """LRU stack property per set: miss set shrinks as ways are added."""
    lines, writes = to_arrays(stream)
    small = FastSetAssocCache(num_sets, assoc)
    large = FastSetAssocCache(num_sets, assoc + extra)
    small_mask = small.replay_arrays(lines, writes)
    large_mask = large.replay_arrays(lines, writes)
    # Every hit in the smaller cache is a hit in the larger one.
    assert not np.any(small_mask & ~large_mask)
    assert large.stats.hits >= small.stats.hits
    assert large.stats.evictions <= small.stats.evictions


@given(geometry=geometries, stream=streams)
@settings(max_examples=100, deadline=None)
def test_mask_consistent_with_counters(geometry, stream):
    num_sets, assoc, hashed = geometry
    cache = FastSetAssocCache(num_sets, assoc, hash_sets=hashed)
    lines, writes = to_arrays(stream)
    mask = cache.replay_arrays(lines, writes)
    assert int(mask.sum()) == cache.stats.hits
    assert int((~mask).sum()) == cache.stats.misses
    assert cache.stats.writes == int(writes.sum())
    assert len(cache) <= cache.capacity_lines
