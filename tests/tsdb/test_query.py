"""Unit tests for scans, downsampling and grid alignment."""

import numpy as np
import pytest

from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.query import Downsampler, ScanQuery, align_to_grid, aggregator
from repro.tsdb.storage import TimeSeriesStore
from tests.tsdb.reference import naive_downsample


class TestAggregator:
    @pytest.mark.parametrize("name,expected", [
        ("avg", 2.0), ("sum", 6.0), ("min", 1.0), ("max", 3.0),
        ("count", 3.0), ("median", 2.0),
    ])
    def test_named_aggregators(self, name, expected):
        fn = aggregator(name)
        assert fn(np.array([1.0, 2.0, 3.0])) == expected

    def test_percentiles(self):
        data = np.arange(1, 101, dtype=float)
        assert aggregator("p95")(data) == pytest.approx(95.05)
        assert aggregator("p99")(data) == pytest.approx(99.01)

    def test_unknown_raises(self):
        with pytest.raises(SeriesFormatError):
            aggregator("mode")

    def test_case_insensitive(self):
        assert aggregator("AVG")(np.array([2.0, 4.0])) == 3.0


class TestDownsampler:
    def test_avg_buckets(self):
        ds = Downsampler(interval=2, agg="avg")
        ts = np.array([0, 1, 2, 3, 4])
        vals = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        out_ts, out_vals = ds.apply(ts, vals)
        assert out_ts.tolist() == [0, 2, 4]
        assert out_vals.tolist() == [2.0, 6.0, 9.0]

    def test_max_buckets(self):
        ds = Downsampler(interval=3, agg="max")
        ts = np.arange(6)
        vals = np.array([1.0, 9.0, 2.0, 4.0, 8.0, 3.0])
        _, out_vals = ds.apply(ts, vals)
        assert out_vals.tolist() == [9.0, 8.0]

    def test_empty_input(self):
        ds = Downsampler(interval=5)
        out_ts, out_vals = ds.apply(np.empty(0, dtype=np.int64),
                                    np.empty(0))
        assert out_ts.size == 0 and out_vals.size == 0

    def test_bad_interval(self):
        with pytest.raises(SeriesFormatError):
            Downsampler(interval=0)


class TestAlignToGrid:
    def test_exact_alignment(self):
        ts = np.array([0, 1, 2])
        vals = np.array([1.0, 2.0, 3.0])
        grid = np.array([0, 1, 2])
        assert align_to_grid(ts, vals, grid).tolist() == [1.0, 2.0, 3.0]

    def test_nearest_neighbour_fill(self):
        ts = np.array([0, 10])
        vals = np.array([1.0, 9.0])
        grid = np.array([0, 3, 7, 10])
        # 3 is closer to 0; 7 closer to 10.
        assert align_to_grid(ts, vals, grid).tolist() == [1.0, 1.0, 9.0, 9.0]

    def test_tie_goes_to_earlier(self):
        ts = np.array([0, 10])
        vals = np.array([1.0, 9.0])
        grid = np.array([5])
        assert align_to_grid(ts, vals, grid).tolist() == [1.0]

    def test_out_of_range_extends_edges(self):
        ts = np.array([5, 6])
        vals = np.array([2.0, 4.0])
        grid = np.array([0, 5, 6, 20])
        assert align_to_grid(ts, vals, grid).tolist() == [2.0, 2.0, 4.0, 4.0]

    def test_empty_series_gives_nan(self):
        out = align_to_grid(np.empty(0, dtype=np.int64), np.empty(0),
                            np.array([1, 2]))
        assert np.isnan(out).all()


class TestScanQuery:
    @pytest.fixture
    def store(self):
        s = TimeSeriesStore()
        s.insert_array(SeriesId.make("a", {"host": "h1"}), range(10),
                       np.arange(10.0))
        s.insert_array(SeriesId.make("a", {"host": "h2"}), range(10),
                       np.arange(10.0) * 2)
        s.insert_array(SeriesId.make("b"), range(0, 10, 2),
                       [5.0, 5.0, 5.0, 5.0, 5.0])
        return s

    def test_scan_by_name(self, store):
        result = ScanQuery(name="a").run(store)
        assert len(result) == 2

    def test_scan_time_clip(self, store):
        result = ScanQuery(name="a", start=5, end=8).run(store)
        ts, _ = next(iter(result.columns.values()))
        assert ts.tolist() == [5, 6, 7]

    def test_scan_with_downsample(self, store):
        result = ScanQuery(name="a",
                           downsample=Downsampler(5, "avg")).run(store)
        ts, vals = result.columns[SeriesId.make("a", {"host": "h1"})]
        assert ts.tolist() == [0, 5]
        assert vals.tolist() == [2.0, 7.0]

    def test_grid_spans_every_series(self, store):
        result = ScanQuery().run(store)
        assert len(result.series_ids()) == 3
        assert result.grid().tolist() == list(range(10))

    def test_sparse_series_aligns_onto_the_grid(self, store):
        result = ScanQuery(name="b").run(store)
        column = align_to_grid(*result.columns[SeriesId.make("b")],
                               np.arange(10))
        # series b only has even timestamps; odd ones take neighbours
        assert not np.isnan(column).any()

    def test_explicit_series_ids(self, store):
        sid = SeriesId.make("b")
        result = ScanQuery(series_ids=[sid]).run(store)
        assert result.series_ids() == [sid]

    def test_grid_of_empty_result(self):
        result = ScanQuery(name="zzz").run(TimeSeriesStore())
        assert result.grid().size == 0


class TestStoreDownsampleParity:
    """A whole-store downsampling scan equals the per-bucket reference
    series by series: bitwise, except ragged-bucket sum/avg (segmented
    ``reduceat``), which is pinned at 1e-9 relative tolerance."""

    @staticmethod
    def _store(n_samples):
        rng = np.random.default_rng(0)
        store = TimeSeriesStore()
        ts = np.arange(n_samples, dtype=np.int64)
        for metric, key in (("disk_io", "host"), ("pipeline_runtime",
                                                  "pipeline_name")):
            for i in range(3):
                level = float(rng.uniform(1.0, 100.0))
                store.insert_array(
                    SeriesId.make(metric, {key: f"e-{i}"}), ts,
                    level + rng.standard_normal(n_samples) * 0.1 * level)
        return store

    @pytest.mark.parametrize("n_samples", [240, 288])   # even, ragged
    @pytest.mark.parametrize("agg", ["avg", "sum", "max", "median"])
    def test_matches_per_series_reference(self, n_samples, agg):
        store = self._store(n_samples)
        interval = 5
        query = ScanQuery(downsample=Downsampler(interval, agg))
        result = query.run(store)
        assert set(result.columns) == set(store.series_ids())
        ragged = agg in ("sum", "avg") and n_samples % interval != 0
        for series, (ts, vals) in result.columns.items():
            ref_ts, ref_vals = naive_downsample(
                interval, agg, *store.arrays(series))
            assert np.array_equal(ts, ref_ts)
            if ragged:
                assert np.allclose(vals, ref_vals, rtol=1e-9, atol=0.0)
            else:
                assert vals.tobytes() == ref_vals.tobytes()
        again = query.run(store)
        assert set(again.columns) == set(result.columns)
        for series, (ts, vals) in result.columns.items():
            again_ts, again_vals = again.columns[series]
            assert ts.tobytes() == again_ts.tobytes()
            assert vals.tobytes() == again_vals.tobytes()
