"""The log-linear latency histogram: accuracy and merging.

The load-bearing property is the percentile error bound: the reported
percentile must be >= the exact (nearest-rank, sorted-array) percentile
and within one bucket width of it.  Merging must be exact — recording a
stream into shards and merging the shards must equal recording the
whole stream into one histogram — because the probe aggregates
per-phase shards into the overall report.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen import LatencyHistogram
from repro.metrics import exact_percentile

# Small geometry so Hypothesis runs stay fast; the bound must hold for
# any geometry, so a couple of parametrised cases pin the default too.
SMALL = dict(min_value=1e-4, max_value=10.0, subbuckets=8)

samples = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)
quantiles = st.sampled_from([0.0, 50.0, 90.0, 99.0, 99.9, 100.0])


class TestBucketGeometry:
    def test_underflow_and_overflow_buckets(self):
        hist = LatencyHistogram(**SMALL)
        assert hist.bucket_index(0.0) == 0
        assert hist.bucket_index(-1.0) == 0
        assert hist.bucket_index(hist.min_value) == 0
        assert hist.bucket_index(hist.max_value) == len(hist.counts) - 1
        assert hist.bucket_index(1e9) == len(hist.counts) - 1

    def test_bucket_bounds_tile_the_range(self):
        hist = LatencyHistogram(**SMALL)
        # Inner buckets tile [min_value, ...) contiguously with no gaps.
        previous_upper = hist.min_value
        for index in range(1, len(hist.counts) - 1):
            lower, upper = hist.bucket_bounds(index)
            assert lower == pytest.approx(previous_upper)
            assert upper > lower
            previous_upper = upper
        assert previous_upper >= hist.max_value

    @given(
        value=st.floats(
            min_value=1e-4, max_value=10.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_every_value_lands_inside_its_bucket(self, value):
        hist = LatencyHistogram(**SMALL)
        index = hist.bucket_index(value)
        lower, upper = hist.bucket_bounds(index)
        assert lower <= value <= upper or index == 0

    def test_bucket_edge_values_stay_in_range(self):
        hist = LatencyHistogram(**SMALL)
        # Exact bucket edges (both sides of each boundary) must resolve
        # to a bucket whose bounds contain them up to float rounding —
        # an edge may land one ULP across the seam, never further.
        slop = 1e-12
        for index in range(1, len(hist.counts) - 1):
            lower, upper = hist.bucket_bounds(index)
            for value in (lower, math.nextafter(upper, 0.0)):
                where = hist.bucket_index(value)
                got_lower, got_upper = hist.bucket_bounds(where)
                assert got_lower * (1.0 - slop) <= value <= got_upper * (1.0 + slop)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(subbuckets=0)


class TestPercentiles:
    def test_empty_histogram_is_nan(self):
        hist = LatencyHistogram(**SMALL)
        assert math.isnan(hist.percentile(50.0))
        assert math.isnan(hist.mean)
        assert all(math.isnan(v) for v in hist.percentiles().values())

    def test_single_sample_reports_itself(self):
        hist = LatencyHistogram(**SMALL)
        hist.record(0.25)
        for q in (0.0, 50.0, 99.0, 100.0):
            value = hist.percentile(q)
            assert value <= 0.25  # clamped to max_recorded
            assert value >= hist.bucket_bounds(hist.bucket_index(0.25))[0]

    @settings(max_examples=200, deadline=None)
    @given(values=samples, q=quantiles)
    def test_percentile_within_one_bucket_of_sorted_reference(self, values, q):
        hist = LatencyHistogram(**SMALL)
        hist.record_many(values)
        exact = exact_percentile(values, q)
        reported = hist.percentile(q)
        index = hist.bucket_index(exact)
        lower, upper = hist.bucket_bounds(index)
        # Reported value never understates the exact percentile by more
        # than the containing bucket's lower edge, and never overstates
        # it past the bucket's upper edge (overflow clamps to max).
        assert reported >= lower
        assert reported <= min(upper, max(values)) or math.isinf(upper)

    def test_percentile_bounds_on_default_geometry(self):
        hist = LatencyHistogram()
        values = [((i * 2654435761) % 100_000) / 100_000 * 2.0 for i in range(10_000)]
        hist.record_many(values)
        for q in (50.0, 90.0, 99.0, 99.9):
            exact = exact_percentile(values, q)
            reported = hist.percentile(q)
            lower, upper = hist.bucket_bounds(hist.bucket_index(exact))
            assert exact <= reported <= exact + (upper - lower)

    def test_percentile_validates_range(self):
        hist = LatencyHistogram(**SMALL)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)


class TestMerge:
    @settings(max_examples=100, deadline=None)
    @given(a=samples, b=samples, c=samples)
    def test_merge_equals_recording_everything(self, a, b, c):
        whole = LatencyHistogram(**SMALL)
        whole.record_many(a + b + c)
        shards = []
        for chunk in (a, b, c):
            shard = LatencyHistogram(**SMALL)
            shard.record_many(chunk)
            shards.append(shard)
        merged = LatencyHistogram.merged(shards)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.min_recorded == whole.min_recorded
        assert merged.max_recorded == whole.max_recorded

    @settings(max_examples=100, deadline=None)
    @given(a=samples, b=samples, c=samples)
    def test_merge_is_associative(self, a, b, c):
        def shard(chunk):
            hist = LatencyHistogram(**SMALL)
            hist.record_many(chunk)
            return hist

        left = shard(a).merge(shard(b)).merge(shard(c))
        right = shard(a).merge(shard(b).merge(shard(c)))
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.total == pytest.approx(right.total)

    def test_merge_rejects_geometry_mismatch(self):
        with pytest.raises(ValueError, match="different geometry"):
            LatencyHistogram(subbuckets=32).merge(LatencyHistogram(subbuckets=16))

    def test_copy_is_independent(self):
        hist = LatencyHistogram(**SMALL)
        hist.record(0.5)
        clone = hist.copy()
        clone.record(1.0)
        assert hist.count == 1
        assert clone.count == 2

    def test_merged_of_nothing_is_empty_default(self):
        merged = LatencyHistogram.merged([])
        assert merged.count == 0
