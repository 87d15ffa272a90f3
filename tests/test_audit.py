"""Tests for the miss-attribution and audit layer (repro.obs.audit).

Covers four levels:

* the stack-distance machinery (Fenwick tree + ReuseDistanceTracker)
  against a brute-force oracle;
* the MissAttributor: buffer tagging, launch contexts, the miss-class
  partition invariant (cold + capacity + conflict == misses) — as
  deterministic scenarios and as a hypothesis property on the simulator's
  L2 and the test oracle, which must also agree with each other exactly;
* attribution passivity: an attached attributor never changes a cache's
  stats or state;
* the schedule auditor: edge joins, metrics/counter-track emission, the
  JSON schema check, and the HTML report.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.fast_cache import FastSetAssocCache
from repro.graph.buffers import Buffer, BufferAllocator
from repro.obs.audit import (
    MISS_CLASSES,
    MissAttributor,
    ReuseDistanceTracker,
    UNMAPPED,
    _Fenwick,
    audit_schedule,
    graph_buffers,
    render_html,
    validate_audit,
)
from tests.oracles import SetAssocCache


# ----------------------------------------------------------------------
# Stack-distance machinery
# ----------------------------------------------------------------------
class TestFenwick:
    def test_append_and_prefix(self):
        fen = _Fenwick()
        for _ in range(10):
            fen.append_zero()
        for i in range(1, 11):
            fen.add(i, i)
        # prefix(k) == 1 + 2 + ... + k
        for k in range(1, 11):
            assert fen.prefix(k) == k * (k + 1) // 2

    def test_append_preserves_existing_sums(self):
        fen = _Fenwick()
        fen.append_zero()
        fen.add(1, 5)
        for _ in range(20):
            fen.append_zero()
        assert fen.prefix(21) == 5
        fen.add(13, 2)
        assert fen.prefix(12) == 5
        assert fen.prefix(13) == 7


def brute_force_distances(stream):
    """Oracle: distinct other lines since each line's previous access."""
    out = []
    for i, line in enumerate(stream):
        prev = None
        for j in range(i - 1, -1, -1):
            if stream[j] == line:
                prev = j
                break
        if prev is None:
            out.append(None)
        else:
            out.append(len(set(stream[prev + 1 : i])))
    return out


class TestReuseDistanceTracker:
    def test_first_touch_is_none(self):
        tracker = ReuseDistanceTracker()
        assert tracker.observe(10) is None
        assert tracker.observe(11) is None

    def test_immediate_rereference_is_zero(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(10)
        assert tracker.observe(10) == 0

    def test_classic_sequence(self):
        # A B C B A: B reused over {C}, A reused over {B, C}.
        tracker = ReuseDistanceTracker()
        assert [tracker.observe(x) for x in "ABCBA".encode()] == [
            None, None, None, 1, 2,
        ]

    def test_repeats_do_not_inflate_distance(self):
        # A B B B A: the three Bs are ONE distinct line.
        tracker = ReuseDistanceTracker()
        assert [tracker.observe(x) for x in "ABBBA".encode()] == [
            None, None, 0, 0, 1,
        ]

    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, stream):
        tracker = ReuseDistanceTracker()
        assert [tracker.observe(x) for x in stream] == brute_force_distances(
            stream
        )

    def test_reset_forgets_history(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(1)
        tracker.observe(2)
        tracker.reset()
        assert tracker.observe(1) is None


# ----------------------------------------------------------------------
# MissAttributor
# ----------------------------------------------------------------------
def make_buffers(line_shift=7, sizes=(4, 8)):
    alloc = BufferAllocator(line_bytes=1 << line_shift)
    line_words = (1 << line_shift) // 4
    return [
        alloc.allocate(Buffer(f"buf{i}", n * line_words))
        for i, n in enumerate(sizes)
    ]


def attach_fresh(cache, buffers, line_shift=7):
    attr = MissAttributor(buffers, line_shift, cache.capacity_lines)
    cache.attach_attribution(attr)
    return attr


class TestBufferTagging:
    def test_lines_map_to_owning_buffer(self):
        line_shift = 7
        buffers = make_buffers(line_shift)
        attr = MissAttributor(buffers, line_shift, capacity_lines=64)
        for buf in buffers:
            lines = buf.lines(line_shift)
            assert attr.buffer_of(lines.start) == buf.name
            assert attr.buffer_of(lines.stop - 1) == buf.name
        assert attr.buffer_of(0) == UNMAPPED
        assert attr.buffer_of(buffers[-1].lines(line_shift).stop) == UNMAPPED

    def test_launch_context_tags_kernel_and_node(self):
        buffers = make_buffers()
        cache = SetAssocCache(4, 2, hash_sets=False)
        attr = attach_fresh(cache, buffers)
        attr.expect_launch(3, "A")
        attr.begin_launch("kernelA", 1)
        first = buffers[0].lines(7).start
        cache.access(first)
        cache.access(first)
        assert attr.node_buffer_misses[(3, "buf0")] == 1
        assert attr.node_buffer_hits[(3, "buf0")] == 1
        assert attr.kernel_totals["kernelA"] == [1, 1]
        # A second launch without expect_launch gets no node tag.
        attr.begin_launch("kernelB", 1)
        cache.access(first)
        assert attr.node_buffer_hits[(None, "buf0")] == 1


class TestMissClasses:
    def test_cold_misses_on_fresh_cache(self):
        cache = SetAssocCache(4, 2, hash_sets=False)
        attr = attach_fresh(cache, make_buffers())
        attr.begin_launch("k", 1)
        for line in range(6):
            cache.access(line)
        classes = attr.miss_class_totals()["k"]
        assert classes == {"cold": 6, "capacity": 0, "conflict": 0}

    def test_capacity_miss(self):
        # Fully-associative 4-line cache; sweep 5 distinct lines twice:
        # the second round's misses all have reuse distance 4 >= 4.
        cache = SetAssocCache(1, 4, hash_sets=False)
        attr = attach_fresh(cache, make_buffers())
        attr.begin_launch("k", 1)
        for _ in range(2):
            for line in range(5):
                cache.access(line)
        classes = attr.miss_class_totals()["k"]
        assert classes == {"cold": 5, "capacity": 5, "conflict": 0}

    def test_conflict_miss(self):
        # 4 sets x 1 way (capacity 4), unhashed: lines 0 and 4 alias in
        # set 0.  0 4 0: the re-access of 0 has reuse distance 1 < 4 but
        # still misses — a pure conflict miss.
        cache = SetAssocCache(4, 1, hash_sets=False)
        attr = attach_fresh(cache, make_buffers())
        attr.begin_launch("k", 1)
        for line in (0, 4, 0):
            cache.access(line)
        classes = attr.miss_class_totals()["k"]
        assert classes == {"cold": 2, "capacity": 0, "conflict": 1}

    def test_flush_makes_first_touches_cold_again(self):
        cache = SetAssocCache(4, 2, hash_sets=False)
        attr = attach_fresh(cache, make_buffers())
        attr.begin_launch("k", 1)
        cache.access(3)
        cache.flush()
        cache.access(3)
        classes = attr.miss_class_totals()["k"]
        assert classes == {"cold": 2, "capacity": 0, "conflict": 0}

    def test_touch_many_is_not_observed(self):
        cache = SetAssocCache(4, 2, hash_sets=False)
        attr = attach_fresh(cache, make_buffers())
        attr.begin_launch("k", 1)
        cache.touch_many(range(4))
        assert attr.total_accesses == 0
        # ... but the warmed lines DO hit (and the hits are observed).
        cache.access(0)
        assert attr.total_hits == 1


GEOMETRIES = [
    (16, 4, True),
    (16, 4, False),
    (8, 1, True),
    (1, 8, False),
    (7, 3, True),
]


@given(
    geometry=st.sampled_from(GEOMETRIES),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_partition_property_and_backend_agreement(geometry, data):
    """cold+capacity+conflict == misses, on L2 and oracle, identically.

    One random stream through an attributed oracle cache, the same
    stream batched through the attributed simulator L2: the partition
    invariant must hold and every attributor aggregate must agree
    across the two bit-for-bit (attribution sits above the replay
    engine, so the engine must be invisible to it).
    """
    num_sets, assoc, hash_sets = geometry
    universe = 3 * num_sets * assoc
    stream = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=universe),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    line_shift = 7
    buffers = make_buffers(line_shift, sizes=(universe // 2 + 1,))
    base = buffers[0].lines(line_shift).start

    ref = SetAssocCache(num_sets, assoc, hash_sets=hash_sets)
    fast = FastSetAssocCache(num_sets, assoc, hash_sets=hash_sets)
    attrs = []
    for cache in (ref, fast):
        attr = attach_fresh(cache, buffers, line_shift)
        attr.begin_launch("k", 1)
        attrs.append(attr)
    lines = np.array([base + l for l, _ in stream], dtype=np.int64)
    writes = np.array([w for _, w in stream], dtype=bool)
    for line, is_write in zip(lines, writes):
        ref.access(int(line), bool(is_write))
    fast.replay_arrays(lines, writes)

    for attr, cache in zip(attrs, (ref, fast)):
        # The partition invariant, against the cache's own counters.
        assert attr.total_misses == cache.stats.misses
        assert attr.total_hits == cache.stats.hits
        for (kernel, _buf), counts in attr.class_counts.items():
            assert kernel == "k"
        assert sum(
            sum(c) for c in attr.class_counts.values()
        ) == attr.total_misses
    ref_attr, fast_attr = attrs
    assert ref_attr.class_counts == fast_attr.class_counts
    assert ref_attr.histograms == fast_attr.histograms
    assert ref_attr.node_buffer_hits == fast_attr.node_buffer_hits
    assert ref_attr.node_buffer_misses == fast_attr.node_buffer_misses
    assert ref_attr.kernel_totals == fast_attr.kernel_totals


@pytest.mark.parametrize("cache_cls", [SetAssocCache, FastSetAssocCache])
def test_attribution_is_passive(cache_cls):
    """Attaching an attributor changes neither stats nor final state."""
    gen = np.random.default_rng(11)
    lines = gen.integers(0, 128, size=1500, dtype=np.int64)
    writes = gen.random(1500) < 0.25

    plain = cache_cls(16, 4)
    observed = cache_cls(16, 4)
    attach_fresh(observed, make_buffers(), line_shift=7)
    for cache in (plain, observed):
        if isinstance(cache, FastSetAssocCache):
            cache.replay_arrays(lines, writes)
        else:
            for line, w in zip(lines, writes):
                cache.access(int(line), bool(w))
    assert plain.stats.snapshot() == observed.stats.snapshot()
    assert plain.clone_state() == observed.clone_state()


class TestOccupancy:
    def test_occupancy_by_buffer(self):
        line_shift = 7
        buffers = make_buffers(line_shift, sizes=(4, 8))
        cache = SetAssocCache(16, 4, hash_sets=False)
        attr = attach_fresh(cache, buffers, line_shift)
        attr.begin_launch("k", 1)
        for line in buffers[0].lines(line_shift):
            cache.access(line)
        occ = attr.occupancy_bytes(cache)
        assert occ == {"buf0": 4 * 128}
        for line in buffers[1].lines(line_shift):
            cache.access(line)
        occ = attr.occupancy_bytes(cache)
        assert occ["buf0"] == 4 * 128
        assert occ["buf1"] == 8 * 128


# ----------------------------------------------------------------------
# Schedule auditing (integration)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pipeline_audit():
    from repro.apps import build_pipeline
    from repro.core import KTiler, KTilerConfig
    from repro.experiments.presets import SCALED_SPEC
    from repro.obs import Tracer

    app = build_pipeline(size=128)
    tracer = Tracer()
    ktiler = KTiler(
        app.graph,
        spec=SCALED_SPEC,
        config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
        tracer=tracer,
    )
    return app, tracer, audit_schedule(ktiler)


class TestAuditSchedule:
    def test_graph_buffers_unique_by_name(self, pipeline_audit):
        app, _tracer, _audit = pipeline_audit
        buffers = graph_buffers(app.graph)
        names = [b.name for b in buffers]
        assert len(names) == len(set(names))
        assert all(b.allocated for b in buffers)

    def test_every_data_edge_audited(self, pipeline_audit):
        app, _tracer, audit = pipeline_audit
        assert len(audit.edges) == len(list(app.graph.data_edges()))
        # Predicted weights come through the join.
        assert audit.predicted_total_saving_us > 0.0

    def test_miss_classes_partition_in_both_replays(self, pipeline_audit):
        _app, _tracer, audit = pipeline_audit
        for replay in (audit.default, audit.tiled):
            attr = replay.attributor
            assert attr.total_misses == replay.misses
            assert attr.total_hits == replay.hits
            assert sum(
                sum(c) for c in attr.class_counts.values()
            ) == replay.misses

    def test_metrics_and_counter_tracks_emitted(self, pipeline_audit):
        _app, tracer, audit = pipeline_audit
        names = tracer.metrics.names()
        assert "audit.edge.predicted_us" in names
        assert "audit.miss.cold" in names
        counter_events = [
            e for e in tracer.sim_events
            if e["ph"] == "C" and e["name"].startswith("l2_buffers.")
        ]
        # One sample per launch per replayed schedule.
        expected = len(audit.default.attributor.kernel_totals)
        assert len(counter_events) >= expected
        assert any(e["args"] for e in counter_events)

    def test_json_round_trips_schema(self, pipeline_audit, tmp_path):
        import json

        _app, _tracer, audit = pipeline_audit
        payload = validate_audit(audit.to_json_dict(preset="demo"))
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(payload))
        validate_audit(json.loads(path.read_text()))

    def test_html_report_contains_edges_and_kernels(self, pipeline_audit):
        _app, _tracer, audit = pipeline_audit
        payload = audit.to_json_dict(preset="demo")
        html = render_html(payload)
        for edge in payload["edges"]:
            assert edge["buffer"] in html
        for row in payload["kernels"]:
            assert row["kernel"] in html
        assert "reuse distance" in html.lower()

    def test_format_table_mentions_partition(self, pipeline_audit):
        _app, _tracer, audit = pipeline_audit
        table = audit.format_table()
        assert "cold" in table and "capacity" in table and "conflict" in table


class TestValidateAudit:
    def _payload(self):
        from repro.apps import build_pipeline
        from repro.core import KTiler, KTilerConfig
        from repro.experiments.presets import SCALED_SPEC

        app = build_pipeline(size=128)
        ktiler = KTiler(
            app.graph,
            spec=SCALED_SPEC,
            config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
        )
        return audit_schedule(ktiler).to_json_dict(preset="demo")

    def test_rejects_wrong_schema_version(self):
        payload = self._payload()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_audit(payload)

    def test_rejects_broken_partition(self):
        payload = self._payload()
        row = next(r for r in payload["kernels"] if r["misses"])
        row["cold"] += 1
        with pytest.raises(ValueError, match="partition"):
            validate_audit(payload)

    def test_rejects_missing_summary_key(self):
        payload = self._payload()
        del payload["summary"]["gain"]
        with pytest.raises(ValueError, match="summary.gain"):
            validate_audit(payload)

    def test_rejects_inconsistent_hit_delta(self):
        payload = self._payload()
        payload["edges"][0]["hit_delta"] += 1
        with pytest.raises(ValueError, match="hit_delta"):
            validate_audit(payload)
