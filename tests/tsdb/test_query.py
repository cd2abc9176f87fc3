"""Unit tests for scans and grid alignment."""

import numpy as np
import pytest

from repro.tsdb.model import SeriesId
from repro.tsdb.query import ScanQuery, align_to_grid
from repro.tsdb.storage import TimeSeriesStore


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
