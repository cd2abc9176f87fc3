"""Parity of the segmented ragged-downsample fast paths.

Gappy (irregular) series produce unequal bucket sizes, which used to
fall back to one Python-level aggregator call per bucket for every
aggregate.  MIN/MAX reduce all buckets with one ``reduceat`` call (COUNT
was already derived from bucket sizes); SUM/AVG replay numpy's pairwise
summation for every bucket at once; the order statistics
(median/p95/p99) go through sorted-segment indexing — one ``lexsort`` +
index gathers replicating numpy's quantile arithmetic.  Every one must
stay *bitwise* identical to the per-bucket loop, NaN, ``±inf`` and
``-0.0`` included (for sums, any NaN equals any NaN).
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.tsdb.query import Downsampler
from tests.tsdb.reference import naive_downsample


def _bitwise_equal(a: np.ndarray, b: np.ndarray,
                   any_nan: bool = False) -> bool:
    """Bit-level equality: distinguishes -0.0 from 0.0, equates NaNs
    of the same payload (both sides produce the same quiet NaN).  With
    ``any_nan`` every NaN equals every NaN, the parity suites'
    ``_cells_equal`` rule: the sign of an ``inf + -inf`` sum's NaN is not
    part of the summation contract."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    same = a.view(np.int64) == b.view(np.int64)
    if any_nan:
        same |= np.isnan(a) & np.isnan(b)
    return bool(same.all())


def _apply_both(interval, agg, ts, vals):
    fast_ts, fast_vals = Downsampler(interval, agg).apply(ts, vals)
    ref_ts, ref_vals = naive_downsample(interval, agg, ts, vals)
    assert np.array_equal(fast_ts, ref_ts)
    assert np.array_equal(fast_vals, ref_vals), (
        f"{agg} mismatch: {fast_vals} vs {ref_vals}")
    return fast_ts, fast_vals


@st.composite
def gappy_series(draw):
    n = draw(st.integers(1, 60))
    ts = np.asarray(sorted(draw(st.sets(
        st.integers(0, 300), min_size=n, max_size=n))), dtype=np.int64)
    vals = np.asarray(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False),
        min_size=ts.size, max_size=ts.size)), dtype=np.float64)
    return ts, vals


class TestRaggedSegmentedReduction:
    def test_min_max_on_explicitly_gappy_buckets(self):
        # Buckets of sizes 3, 1, 2 under interval=10: ragged by design.
        ts = np.asarray([0, 3, 7, 25, 41, 44], dtype=np.int64)
        vals = np.asarray([5.0, -2.0, 3.5, 9.0, -1.0, -7.25])
        out_ts, mins = _apply_both(10, "min", ts, vals)
        assert out_ts.tolist() == [0, 20, 40]
        assert mins.tolist() == [-2.0, 9.0, -7.25]
        _, maxes = _apply_both(10, "max", ts, vals)
        assert maxes.tolist() == [5.0, 9.0, -1.0]

    def test_count_on_gappy_buckets(self):
        ts = np.asarray([0, 3, 7, 25, 41, 44], dtype=np.int64)
        vals = np.zeros(6)
        _, counts = _apply_both(10, "count", ts, vals)
        assert counts.tolist() == [3.0, 1.0, 2.0]

    def test_single_point_buckets(self):
        ts = np.asarray([0, 100, 200], dtype=np.int64)
        vals = np.asarray([1.0, 2.0, 3.0])
        for agg in ("min", "max", "count"):
            _apply_both(7, agg, ts, vals)

    @given(gappy_series(), st.integers(1, 40),
           st.sampled_from(["min", "max", "count"]))
    @settings(max_examples=120, deadline=None)
    def test_segmented_aggregates_bitwise(self, series, interval, agg):
        ts, vals = series
        _apply_both(interval, agg, ts, vals)

    @given(gappy_series(), st.integers(1, 40),
           st.sampled_from(["median", "p95", "p99"]))
    @settings(max_examples=90, deadline=None)
    def test_order_statistics_bitwise(self, series, interval, agg):
        ts, vals = series
        _apply_both(interval, agg, ts, vals)

    @given(gappy_series(), st.integers(1, 40),
           st.sampled_from(["sum", "avg"]))
    @settings(max_examples=60, deadline=None)
    def test_segmented_sums_bitwise(self, series, interval, agg):
        ts, vals = series
        fast_ts, fast_vals = Downsampler(interval, agg).apply(ts, vals)
        ref_ts, ref_vals = naive_downsample(interval, agg, ts, vals)
        assert np.array_equal(fast_ts, ref_ts)
        assert _bitwise_equal(fast_vals, ref_vals), (
            f"{agg}@{interval} mismatch: {fast_vals} vs {ref_vals}")

    def test_sum_avg_on_explicitly_gappy_buckets(self):
        ts = np.asarray([0, 3, 7, 25, 41, 44], dtype=np.int64)
        vals = np.asarray([5.0, -2.0, 3.5, 9.0, -1.0, -7.25])
        out_ts, sums = _apply_both(10, "sum", ts, vals)
        assert out_ts.tolist() == [0, 20, 40]
        assert sums.tolist() == [6.5, 9.0, -8.25]
        _, avgs = _apply_both(10, "avg", ts, vals)
        assert avgs.tolist() == [6.5 / 3, 9.0, -4.125]

    def test_sum_avg_over_many_ragged_buckets(self, rng):
        """Enough buckets, of about 45 points each, for the vector path."""
        ts = np.unique(rng.integers(0, 40_000, 6_000))
        vals = rng.standard_normal(ts.size) * 1e6
        for agg in ("sum", "avg"):
            _apply_both(300, agg, ts, vals)

    def test_equal_width_sum_avg_stays_bitwise(self, rng):
        """Dense regular grids take the reshape path, also bitwise."""
        ts = np.arange(120, dtype=np.int64)
        vals = rng.standard_normal(120) * 1e6
        for agg in ("sum", "avg"):
            _apply_both(10, agg, ts, vals)


class TestSegmentedOrderStatistics:
    """The sorted-segment median/percentile kernel (and, in the property
    test, the pairwise sum/avg kernels) vs the loop, bitwise, under the
    full float64 bestiary (NaN, ±inf, -0.0, near-overflow)."""

    def _compare(self, interval, agg, ts, vals):
        fast_ts, fast_vals = Downsampler(interval, agg).apply(ts, vals)
        with np.errstate(invalid="ignore", over="ignore"):
            ref_ts, ref_vals = naive_downsample(interval, agg, ts, vals)
        assert np.array_equal(fast_ts, ref_ts)
        assert _bitwise_equal(fast_vals, ref_vals,
                              any_nan=agg in ("sum", "avg")), (
            f"{agg}@{interval} mismatch: {fast_vals} vs {ref_vals}")

    def test_explicit_ragged_median(self):
        # Buckets of sizes 3 (odd: middle element), 1, 2 (even: mean of
        # middles) under interval=10.
        ts = np.asarray([0, 3, 7, 25, 41, 44], dtype=np.int64)
        vals = np.asarray([5.0, -2.0, 3.5, 9.0, -1.0, -7.25])
        out_ts, medians = Downsampler(10, "median").apply(ts, vals)
        assert out_ts.tolist() == [0, 20, 40]
        assert medians.tolist() == [3.5, 9.0, -4.125]
        self._compare(10, "median", ts, vals)

    def test_nan_buckets_yield_nan(self):
        ts = np.asarray([0, 1, 2, 25, 41, 44], dtype=np.int64)
        vals = np.asarray([5.0, np.nan, 3.5, 9.0, np.nan, np.nan])
        for agg in ("median", "p95", "p99"):
            _, out = Downsampler(10, agg).apply(ts, vals)
            assert np.isnan(out[0]) and not np.isnan(out[1])
            assert np.isnan(out[2])
            self._compare(10, agg, ts, vals)

    def test_negative_zero_median_matches_numpy_sign(self):
        # np.median's mean over the middle slice folds in the additive
        # identity, turning a -0.0 middle into +0.0; the vectorized
        # kernel must reproduce that sign exactly.
        ts = np.asarray([0, 1, 2], dtype=np.int64)
        vals = np.asarray([-1.0, -0.0, 5.0])
        _, out = Downsampler(10, "median").apply(ts, vals)
        assert _bitwise_equal(out, np.asarray([np.median(vals)]))
        assert not np.signbit(out[0])

    def test_infinity_edge_cases(self):
        ts = np.asarray([0, 1, 12, 13, 14], dtype=np.int64)
        vals = np.asarray([np.inf, np.inf, -np.inf, 2.0, np.inf])
        for agg in ("median", "p95", "p99"):
            self._compare(10, agg, ts, vals)

    def test_single_point_buckets_are_exact(self):
        ts = np.asarray([0, 100, 200], dtype=np.int64)
        vals = np.asarray([-0.0, np.inf, 3.25])
        for agg in ("median", "p95", "p99"):
            self._compare(7, agg, ts, vals)

    @given(gappy_series(), st.integers(1, 40),
           st.sampled_from(["median", "p95", "p99", "sum", "avg"]),
           st.data())
    @settings(max_examples=90, deadline=None)
    def test_property_bitwise_with_edge_values(self, series, interval,
                                               agg, data):
        ts, vals = series
        vals = vals.copy()
        # Overwrite a random subset with adversarial floats.
        specials = [np.nan, np.inf, -np.inf, -0.0, 1e308, -1e308]
        for i in range(vals.size):
            if data.draw(st.booleans(), label=f"special@{i}"):
                vals[i] = data.draw(st.sampled_from(specials),
                                    label=f"value@{i}")
        self._compare(interval, agg, ts, vals)
