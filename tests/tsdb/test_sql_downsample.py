"""Downsampling a store is one SQL statement over ``tsdb``.

``SELECT metric_name, tag['idx'], FLOOR(timestamp / k) * k AS bucket,
AGG(value) FROM tsdb GROUP BY ...`` is the declarative form of a
per-series downsample: one row per series and time bucket.  Every
statement here runs on the columnar executor and on the row interpreter
(``Database(columnar=False)``), and each answer is checked against a
per-series numpy loop over bucket runs (:func:`reference_downsample`),
bit for bit: ragged (gappy) buckets, duplicate timestamps, NaN, ``±inf``
and ``-0.0`` included.  Any NaN equals any NaN: the sign of an
``inf + -inf`` sum's NaN is not part of the summation contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import Database
from repro.tsdb import SeriesId, TimeSeriesStore, register_store

#: name -> (SQL aggregate over ``value``, numpy reference for one bucket).
AGGREGATES = {
    "avg": ("AVG(value)", lambda v: float(np.mean(v))),
    "sum": ("SUM(value)", lambda v: float(np.sum(v))),
    "min": ("MIN(value)", lambda v: float(np.min(v))),
    "max": ("MAX(value)", lambda v: float(np.max(v))),
    "count": ("COUNT(value)", len),
    "median": ("MEDIAN(value)", lambda v: float(np.median(v))),
    "p95": ("PERCENTILE(value, 0.95)",
            lambda v: float(np.percentile(v, 0.95 * 100.0))),
    "p99": ("PERCENTILE(value, 0.99)",
            lambda v: float(np.percentile(v, 0.99 * 100.0))),
}
ALL_AGGS = list(AGGREGATES)
ORDER_STATS = ["median", "p95", "p99"]

#: Six points in three buckets of sizes 3, 1 and 2 under ``interval=10``.
GAPPY_TS = [0, 3, 7, 25, 41, 44]
GAPPY_VALUES = [5.0, -2.0, 3.5, 9.0, -1.0, -7.25]

finite_values = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


#: Every test runs on the columnar executor and on the row interpreter.
pytestmark = pytest.mark.parametrize("columnar", [True, False],
                                     ids=["columnar", "row"])


def downsample_sql(agg: str, interval: int, where: str = "") -> str:
    bucket = f"FLOOR(timestamp / {interval}) * {interval}"
    return (f"SELECT metric_name, tag['idx'] AS idx, {bucket} AS bucket, "
            f"{AGGREGATES[agg][0]} AS v FROM tsdb {where} "
            f"GROUP BY metric_name, tag['idx'], {bucket} "
            f"ORDER BY metric_name, idx, bucket")


def run(store: TimeSeriesStore, columnar: bool, agg: str, interval: int,
        where: str = "") -> list[tuple]:
    db = Database(columnar=columnar)
    register_store(db, store)
    with np.errstate(invalid="ignore", over="ignore"):
        return db.sql(downsample_sql(agg, interval, where)).rows


def reference_downsample(store: TimeSeriesStore, agg: str, interval: int,
                         lo: int | None = None, hi: int | None = None,
                         name: str | None = None,
                         host: str | None = None) -> list[tuple]:
    """One row per series and bucket run, from the series' own arrays."""
    fn = AGGREGATES[agg][1]
    rows = []
    for series in store.read_view().series_ids():
        tags = series.tag_map()
        if name is not None and series.name != name:
            continue
        if host is not None and tags.get("host") != host:
            continue
        ts, values = store.arrays(series)
        keep = np.ones(ts.size, dtype=bool)
        if lo is not None:
            keep &= ts >= lo
        if hi is not None:
            keep &= ts <= hi
        ts, values = ts[keep], values[keep]
        buckets = ts // interval
        cuts = np.flatnonzero(np.diff(buckets)) + 1
        for run_ts, run_values in zip(np.split(ts, cuts),
                                      np.split(values, cuts)):
            if run_ts.size:
                with np.errstate(invalid="ignore", over="ignore"):
                    cell = fn(run_values)
                rows.append((series.name, tags["idx"],
                             float(run_ts[0] // interval * interval), cell))
    rows.sort(key=lambda row: row[:3])
    return rows


def _same_cell(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        return (np.float64(a).view(np.int64)
                == np.float64(b).view(np.int64))
    return type(a) is type(b) and a == b


def assert_rows_equal(got: list[tuple], want: list[tuple]) -> None:
    assert len(got) == len(want), (got, want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        assert all(_same_cell(a, b) for a, b in zip(got_row, want_row)), (
            got_row, want_row)


def store_of(*series: tuple[str, dict, list, list]) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for i, (name, tags, ts, values) in enumerate(series):
        store.insert_array(SeriesId.make(name, {"idx": str(i), **tags}),
                           np.asarray(ts, dtype=np.int64),
                           np.asarray(values, dtype=np.float64))
    return store


def gappy_store() -> TimeSeriesStore:
    return store_of(("m", {}, GAPPY_TS, GAPPY_VALUES))


def mixed_store(seed: int = 0, n_series: int = 12,
                horizon: int = 60) -> TimeSeriesStore:
    """Series of three metrics over four hosts, each at random sorted
    timestamps (gaps and duplicates) within ``horizon``."""
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore()
    for i in range(n_series):
        name = ["disk", "cpu", "runtime"][i % 3]
        sid = SeriesId.make(name, {"host": f"h{i % 4}", "idx": str(i)})
        n = int(rng.integers(1, horizon))
        store.insert_array(sid, np.sort(rng.integers(0, horizon, n)),
                           rng.standard_normal(n))
    return store


@st.composite
def gappy_series(draw, values=finite_values, duplicates=False):
    n = draw(st.integers(1, 60))
    if duplicates:
        ts = sorted(draw(st.lists(st.integers(0, 300), min_size=n,
                                  max_size=n)))
    else:
        ts = sorted(draw(st.sets(st.integers(0, 300), min_size=n,
                                 max_size=n)))
    vals = draw(st.lists(values, min_size=len(ts), max_size=len(ts)))
    return ts, vals


# ---------------------------------------------------------------------------
# Equal-width and ragged buckets
# ---------------------------------------------------------------------------
class TestBuckets:
    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_dense_equal_width_buckets(self, agg, columnar):
        rng = np.random.default_rng(7)
        ts = np.arange(720)
        store = store_of(("m", {}, ts, rng.standard_normal(720) * 1e3),
                         ("m", {}, ts, rng.standard_normal(720)))
        for interval in (1, 2, 5, 60, 720, 1000):
            assert_rows_equal(run(store, columnar, agg, interval),
                              reference_downsample(store, agg, interval))

    #: Per-bucket answers on ``GAPPY_TS``/``GAPPY_VALUES`` at ``interval=10``.
    EXPECTED_GAPPY = {
        "avg": [6.5 / 3, 9.0, -4.125],
        "sum": [6.5, 9.0, -8.25],
        "min": [-2.0, 9.0, -7.25],
        "max": [5.0, 9.0, -1.0],
        "count": [3, 1, 2],
        "median": [3.5, 9.0, -4.125],
        "p95": [float(np.percentile([5.0, -2.0, 3.5], 95.0)), 9.0,
                float(np.percentile([-1.0, -7.25], 95.0))],
        "p99": [float(np.percentile([5.0, -2.0, 3.5], 99.0)), 9.0,
                float(np.percentile([-1.0, -7.25], 99.0))],
    }

    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_explicitly_gappy_buckets(self, agg, columnar):
        store = gappy_store()
        rows = run(store, columnar, agg, 10)
        assert [row[2] for row in rows] == [0.0, 20.0, 40.0]
        assert_rows_equal(
            rows, [("m", "0", b, v) for b, v in
                   zip([0.0, 20.0, 40.0], self.EXPECTED_GAPPY[agg])])
        assert_rows_equal(rows, reference_downsample(store, agg, 10))

    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_many_ragged_buckets(self, agg, columnar, rng):
        """About 45 points a bucket over ~130 buckets of unequal size."""
        ts = np.unique(rng.integers(0, 40_000, 6_000))
        store = store_of(("m", {}, ts, rng.standard_normal(ts.size) * 1e6))
        assert_rows_equal(run(store, columnar, agg, 300),
                          reference_downsample(store, agg, 300))

    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_single_point(self, agg, columnar):
        store = store_of(("m", {}, [13], [2.5]))
        rows = run(store, columnar, agg, 7)
        assert [row[2] for row in rows] == [7.0]
        assert_rows_equal(rows, reference_downsample(store, agg, 7))

    @pytest.mark.parametrize("n_samples", [240, 288])   # even, ragged
    @pytest.mark.parametrize("agg", ["avg", "sum", "max", "median"])
    def test_whole_store_matches_per_series_reference(self, n_samples, agg,
                                                      columnar):
        rng = np.random.default_rng(0)
        ts = np.arange(n_samples)
        series = []
        for metric, key in (("disk_io", "host"),
                            ("pipeline_runtime", "pipeline_name")):
            for i in range(3):
                level = float(rng.uniform(1.0, 100.0))
                series.append((metric, {key: f"e-{i}"}, ts,
                               level + rng.standard_normal(n_samples)
                               * 0.1 * level))
        store = store_of(*series)
        db = Database(columnar=columnar)
        register_store(db, store)
        query = downsample_sql(agg, 5)
        first = db.sql(query).rows
        assert {row[:2] for row in first} == {
            (s.name, s.tag_map()["idx"])
            for s in store.read_view().series_ids()}
        assert_rows_equal(first, reference_downsample(store, agg, 5))
        assert_rows_equal(db.sql(query).rows, first)


# ---------------------------------------------------------------------------
# Empty answers
# ---------------------------------------------------------------------------
class TestEmpty:
    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_empty_scan_range(self, agg, columnar):
        """A window past every point downsamples to no rows."""
        store = store_of(("m", {}, range(10), np.ones(10)))
        assert run(store, columnar, agg, 5,
                   "WHERE timestamp BETWEEN 100 AND 200") == []

    def test_empty_store(self, columnar):
        for agg in ALL_AGGS:
            assert run(TimeSeriesStore(), columnar, agg, 5) == []


# ---------------------------------------------------------------------------
# Order statistics and sums under NaN, ±inf and -0.0
# ---------------------------------------------------------------------------
class TestEdgeValues:
    @pytest.mark.parametrize("agg", ORDER_STATS)
    def test_nan_buckets_yield_nan(self, agg, columnar):
        store = store_of(("m", {}, [0, 1, 2, 25, 41, 44],
                          [5.0, np.nan, 3.5, 9.0, np.nan, np.nan]))
        rows = run(store, columnar, agg, 10)
        cells = [row[3] for row in rows]
        assert np.isnan(cells[0]) and not np.isnan(cells[1])
        assert np.isnan(cells[2])
        assert_rows_equal(rows, reference_downsample(store, agg, 10))

    def test_negative_zero_median_matches_numpy_sign(self, columnar):
        # np.median's mean over the middle slice folds in the additive
        # identity, turning a -0.0 middle into +0.0.
        store = store_of(("m", {}, [0, 1, 2], [-1.0, -0.0, 5.0]))
        (row,) = run(store, columnar, "median", 10)
        assert not np.signbit(row[3])
        assert _same_cell(row[3], float(np.median([-1.0, -0.0, 5.0])))

    @pytest.mark.parametrize("agg", ORDER_STATS)
    def test_infinity_edge_cases(self, agg, columnar):
        store = store_of(("m", {}, [0, 1, 12, 13, 14],
                          [np.inf, np.inf, -np.inf, 2.0, np.inf]))
        assert_rows_equal(run(store, columnar, agg, 10),
                          reference_downsample(store, agg, 10))

    @given(gappy_series(values=st.one_of(
               finite_values,
               st.sampled_from([np.nan, np.inf, -np.inf, -0.0,
                                1e308, -1e308]))),
           st.integers(1, 40),
           st.sampled_from(ORDER_STATS + ["sum", "avg"]))
    @settings(max_examples=40, deadline=None)
    def test_property_bitwise_with_edge_values(self, columnar, series,
                                               interval, agg):
        store = store_of(("m", {}, *series))
        assert_rows_equal(run(store, columnar, agg, interval),
                          reference_downsample(store, agg, interval))


# ---------------------------------------------------------------------------
# Filters: what a rollup over one metric or tag computed
# ---------------------------------------------------------------------------
class TestFilters:
    def test_metric_and_tag_filter(self, columnar):
        store = mixed_store(seed=4)
        rows = run(store, columnar, "p95", 15,
                   "WHERE metric_name = 'cpu' AND tag['host'] = 'h1'")
        assert rows
        assert_rows_equal(rows, reference_downsample(
            store, "p95", 15, name="cpu", host="h1"))

    @pytest.mark.parametrize("agg", ["avg", "count"])
    def test_metric_and_time_window(self, agg, columnar):
        store = mixed_store(seed=3)
        rows = run(store, columnar, agg, 10,
                   "WHERE metric_name = 'disk' AND "
                   "timestamp BETWEEN 13 AND 47")
        assert rows
        assert_rows_equal(rows, reference_downsample(
            store, agg, 10, lo=13, hi=47, name="disk"))


# ---------------------------------------------------------------------------
# A registered store answers for its current version
# ---------------------------------------------------------------------------
class TestVersions:
    def test_refreshes_after_value_mutation(self, columnar):
        """A value-rewriting ``apply`` leaves the point count as it was;
        the next statement still reads the new values."""
        store = TimeSeriesStore()
        sid = SeriesId.make("latency", {"host": "h1", "idx": "0"})
        store.insert_array(sid, range(20), np.ones(20))
        db = Database(columnar=columnar)
        register_store(db, store)
        query = downsample_sql("avg", 10)
        assert [row[3] for row in db.sql(query).rows] == [1.0, 1.0]
        points = store.num_points()
        store.apply(sid, lambda ts, vals: vals + 9.0)
        assert store.num_points() == points
        assert [row[3] for row in db.sql(query).rows] == [10.0, 10.0]

    def test_refreshes_after_append(self, columnar):
        store = mixed_store(seed=5, n_series=6)
        db = Database(columnar=columnar)
        register_store(db, store)
        query = downsample_sql("sum", 10)
        assert_rows_equal(db.sql(query).rows,
                          reference_downsample(store, "sum", 10))
        series = store.read_view().series_ids()[0]
        store.insert_array(series, [60, 61, 75], [2.0, -3.5, 0.25])
        rows = db.sql(query).rows
        assert_rows_equal(rows, reference_downsample(store, "sum", 10))
        assert (series.name, series.tag_map()["idx"], 70.0, 0.25) in rows


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
class TestProperties:
    @given(gappy_series(duplicates=True), st.integers(1, 25),
           st.sampled_from(ALL_AGGS))
    @settings(max_examples=40, deadline=None)
    def test_gappy_and_duplicate_timestamps(self, columnar, series,
                                            interval, agg):
        store = store_of(("m", {}, *series))
        assert_rows_equal(run(store, columnar, agg, interval),
                          reference_downsample(store, agg, interval))

    @given(st.lists(finite_values, min_size=1, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_bucket_counts_and_sums_add_up(self, columnar, vals, interval):
        store = store_of(("m", {}, range(len(vals)), vals))
        counts = [row[3] for row in run(store, columnar, "count", interval)]
        sums = [row[3] for row in run(store, columnar, "sum", interval)]
        assert sum(counts) == len(vals)
        assert len(sums) == -(-len(vals) // interval)
        assert abs(sum(sums) - float(np.sum(vals))) <= 1e-6 * max(
            1.0, float(np.sum(np.abs(vals))))

    @given(st.lists(finite_values, min_size=1, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_min_max_bracket_avg(self, columnar, vals, interval):
        store = store_of(("m", {}, range(len(vals)), vals))
        lo, mid, hi = ([row[3] for row in run(store, columnar, agg, interval)]
                       for agg in ("min", "avg", "max"))
        for a, m, b in zip(lo, mid, hi):
            slack = 1e-9 * max(1.0, abs(m))
            assert a - slack <= m <= b + slack

    @given(st.lists(finite_values, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_interval_one_is_identity(self, columnar, vals):
        store = store_of(("m", {}, range(len(vals)), vals))
        rows = run(store, columnar, "avg", 1)
        assert [row[2] for row in rows] == [float(t) for t in
                                            range(len(vals))]
        # Equal as numbers: numpy's mean of a lone -0.0 is +0.0.
        assert [row[3] for row in rows] == [float(v) for v in vals]
        assert_rows_equal(rows, reference_downsample(store, "avg", 1))
