"""Property-based tests for the streaming log-bucket histogram.

The histogram is the serve daemon's only latency record — raw samples
are discarded — so its algebra has to be trustworthy: merging is exact
for counts (and therefore for quantiles, which are a pure function of
the counts), insertion order never matters, and quantile estimates are
monotone in q and clamped to the observed range.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.histogram import (
    DEFAULT_LATENCY_BOUNDS_S,
    LogHistogram,
    merge_histograms,
)

# Latency-like values spanning the full ladder plus the overflow bucket.
values = st.floats(
    min_value=0.0, max_value=5e3, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(values, min_size=0, max_size=200)


def _fill(samples):
    hist = LogHistogram()
    for sample in samples:
        hist.observe(sample)
    return hist


class TestLayout:
    def test_default_bounds_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BOUNDS_S) == sorted(
            set(DEFAULT_LATENCY_BOUNDS_S)
        )
        assert DEFAULT_LATENCY_BOUNDS_S[0] == pytest.approx(1e-4)

    def test_invalid_layouts_rejected(self):
        for bad in ([], [0.0], [-1.0], [1.0, 1.0], [2.0, 1.0]):
            with pytest.raises(ValueError):
                LogHistogram(bad)

    def test_bucket_semantics_le(self):
        # Prometheus semantics: a sample equal to a bound lands in that
        # bound's bucket, one epsilon above lands in the next.
        hist = LogHistogram([1.0, 2.0])
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]
        hist.observe(1.0000001)
        assert hist.counts == [1, 1, 0]
        hist.observe(2.5)  # overflow
        assert hist.counts == [1, 1, 1]

    def test_rejects_negative_and_nan(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.observe(-1e-9)
        with pytest.raises(ValueError):
            hist.observe(float("nan"))


class TestMergeAlgebra:
    @given(a=value_lists, b=value_lists, c=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_associative_and_order_free(self, a, b, c):
        left = _fill(a).merge(_fill(b)).merge(_fill(c))
        right = _fill(a).merge(_fill(b).merge(_fill(c)))
        joint = _fill(a + b + c)
        for other in (right, joint):
            assert left.counts == other.counts
            assert left.count == other.count
            assert left.min == other.min
            assert left.max == other.max
            assert math.isclose(
                left.sum, other.sum, rel_tol=1e-9, abs_tol=1e-12
            )
        if left.count:
            # Quantiles are a pure function of counts/min/max, so the
            # merged estimates are *exactly* equal, not just close.
            for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
                assert left.quantile(q) == joint.quantile(q)

    @given(samples=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_insert_order_invariance(self, samples):
        forward = _fill(samples)
        backward = _fill(list(reversed(samples)))
        assert forward.counts == backward.counts
        assert forward.count == backward.count
        assert forward.min == backward.min
        assert forward.max == backward.max

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram([1.0]).merge(LogHistogram([2.0]))

    def test_merge_histograms_empty_iterable(self):
        assert merge_histograms([]) is None


class TestQuantiles:
    @given(samples=value_lists.filter(lambda s: len(s) > 0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_monotone_and_clamped(self, samples):
        hist = _fill(samples)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        estimates = [hist.quantile(q) for q in qs]
        assert estimates == sorted(estimates)
        for estimate in estimates:
            assert hist.min <= estimate <= hist.max

    def test_empty_histogram_has_no_quantiles(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.quantile(0.5)
        assert hist.count == 0
        assert hist.min is None and hist.max is None
        assert "quantiles" not in hist.snapshot()

    def test_one_sample_every_quantile_is_the_sample(self):
        hist = _fill([0.0123])
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == pytest.approx(0.0123)

    def test_quantile_domain_checked(self):
        hist = _fill([1.0])
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_exact_on_identical_samples(self):
        hist = _fill([0.005] * 100)
        assert hist.quantile(0.5) == pytest.approx(0.005)
        assert hist.quantile(0.99) == pytest.approx(0.005)


class TestSerialization:
    def test_snapshot_trims_to_occupied_range(self):
        hist = _fill([0.0004, 0.01])
        buckets = hist.snapshot()["buckets"]
        assert buckets[0]["count"] > 0
        assert buckets[-1]["count"] > 0
        assert sum(b["count"] for b in buckets) == hist.count

    def test_bucket_pairs_cumulative_with_inf(self):
        hist = _fill([0.0001, 0.0002, 5e3])
        pairs = hist.bucket_pairs()
        assert pairs[-1] == ("+Inf", 3)
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
