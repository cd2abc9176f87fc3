"""Columnar fast-path tests: chunked storage and columnar table
materialisation must be *bitwise* identical to the seed per-point
substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import Database
from repro.tsdb import (
    SeriesId,
    StoreView,
    TimeSeriesStore,
    register_store,
    tsdb_table,
)
from repro.tsdb.adapter import TSDB_COLUMNS
from repro.tsdb.model import CHUNK_TARGET, SeriesData, SeriesFormatError
from tests.tsdb.reference import naive_tsdb_table_rows

finite_values = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# Chunked SeriesData
# ----------------------------------------------------------------------
class TestChunkedSeriesData:
    def test_append_buffers_then_seals(self):
        col = SeriesData(SeriesId.make("m"))
        for t in range(CHUNK_TARGET - 1):
            col.append(t, float(t))
        assert col.num_chunks == 1          # one live buffer
        col.append(CHUNK_TARGET - 1, 1.0)
        assert col.num_chunks == 1          # sealed into one chunk
        assert len(col) == CHUNK_TARGET

    def test_extend_appends_one_chunk(self):
        col = SeriesData(SeriesId.make("m"))
        col.extend(np.arange(10), np.ones(10))
        col.extend(np.arange(10, 30), np.zeros(20))
        assert len(col.chunk_stats()) == 2  # one zone map per write
        assert col.num_chunks == 1          # small chunks merge physically
        assert len(col) == 30

    def test_small_writes_keep_few_physical_chunks(self, tmp_path):
        """5 000 one-point writes: physical chunks stay bounded, while
        every read — zone maps (one per write), columns, a clone frozen
        mid-sequence, the chunkfile round trip — is what one chunk per
        write gives."""
        from repro.tsdb.chunkfile import read_chunkfile, write_chunkfile
        from repro.tsdb.model import ChunkStats, ColumnStats

        n, mid = 5000, 2345
        values = np.sin(np.arange(n) * 0.1)
        values[::97] = np.nan
        expected_segments = [
            ChunkStats(t, t + 1, ColumnStats(t, t), ColumnStats(None, None)
                       if np.isnan(v) else ColumnStats(float(v), float(v)))
            for t, v in enumerate(values.tolist())]
        store = TimeSeriesStore()
        series = SeriesId.make("beat")
        col = SeriesData(series)
        for t in range(n):
            stamp, value = np.asarray([t]), values[t:t + 1]
            col.extend(stamp, value)
            store.insert_array(series, stamp, value)
            if t == mid:
                frozen = col.freeze()
        assert col.num_chunks <= -(-n // CHUNK_TARGET) + 1
        assert store.get(series).num_chunks <= -(-n // CHUNK_TARGET) + 1

        def same(column, upto):
            ts, vals = column.arrays()
            assert ts.tobytes() == np.arange(upto, dtype=np.int64).tobytes()
            assert vals.tobytes() == values[:upto].tobytes()
            assert list(column.chunk_stats()) == expected_segments[:upto]

        same(col, n)
        same(frozen, mid + 1)
        same(store.get(series), n)
        write_chunkfile(store, tmp_path / "beat.tsdb")
        same(read_chunkfile(tmp_path / "beat.tsdb").get(series), n)

    def test_consolidation_compacts_and_caches(self):
        col = SeriesData(SeriesId.make("m"))
        col.extend(np.arange(5), np.ones(5))
        col.append(5, 2.0)
        assert col.num_chunks == 2
        ts1, vals1 = col.arrays()
        assert col.num_chunks == 1          # compacted
        ts2, vals2 = col.arrays()
        assert ts1 is ts2 and vals1 is vals2    # cached, no copy
        assert ts1.tolist() == [0, 1, 2, 3, 4, 5]
        assert vals1.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 2.0]

    def test_mixed_append_extend_round_trip(self):
        col = SeriesData(SeriesId.make("m"))
        col.append(0, 0.5)
        col.extend([1, 2, 3], [1.0, 2.0, 3.0])
        col.append(3, 4.0)
        assert col.timestamps.tolist() == [0, 1, 2, 3, 3]
        assert col.values.tolist() == [0.5, 1.0, 2.0, 3.0, 4.0]

    def test_views_are_read_only(self):
        col = SeriesData(SeriesId.make("m"), [0, 1], [1.0, 2.0])
        ts, vals = col.arrays()
        with pytest.raises(ValueError):
            ts[0] = 7
        with pytest.raises(ValueError):
            vals[0] = 7.0

    def test_min_max_o1(self):
        col = SeriesData(SeriesId.make("m"))
        assert col.min_timestamp is None and col.max_timestamp is None
        col.extend([3, 5, 9], [0.0, 0.0, 0.0])
        col.append(11, 1.0)
        assert col.min_timestamp == 3
        assert col.max_timestamp == 11

    @pytest.mark.parametrize("probe",
                             ["max_timestamp", "min_timestamp", "num_chunks"])
    def test_frozen_clone_introspection_sees_unsealed_points(self, probe):
        col = SeriesData(SeriesId.make("m"), [3, 5, 9], [0.0, 0.0, 0.0])
        col.append(11, 1.0)
        clone = col.freeze()          # borrows the unsealed point
        assert getattr(clone, probe) == getattr(col, probe)
        col.append(12, 1.0)
        assert clone.max_timestamp == 11 and col.max_timestamp == 12

    def test_out_of_order_point_append_rejected(self):
        col = SeriesData(SeriesId.make("m"), [5], [1.0])
        with pytest.raises(SeriesFormatError):
            col.append(4, 2.0)

    def test_out_of_order_within_bulk_rejected(self):
        col = SeriesData(SeriesId.make("m"))
        with pytest.raises(SeriesFormatError, match="out-of-order"):
            col.extend([0, 2, 1], [1.0, 2.0, 3.0])

    def test_out_of_order_across_bulk_rejected(self):
        col = SeriesData(SeriesId.make("m"), [10], [1.0])
        with pytest.raises(SeriesFormatError, match="out-of-order"):
            col.extend([4, 5], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SeriesFormatError, match="equal length"):
            SeriesData(SeriesId.make("m"), [0, 1], [1.0])

    def test_replace_values_keeps_timestamps(self):
        col = SeriesData(SeriesId.make("m"), [0, 1, 2], [1.0, 2.0, 3.0])
        col.replace_values(np.array([9.0, 8.0, 7.0]))
        assert col.timestamps.tolist() == [0, 1, 2]
        assert col.values.tolist() == [9.0, 8.0, 7.0]
        with pytest.raises(SeriesFormatError):
            col.replace_values(np.array([1.0]))

    def test_replace_values_on_empty_series(self):
        """Regression: an empty replacement must not store an empty
        chunk (which broke the non-empty-chunk invariant behind the
        O(1) min/max and subsequent appends)."""
        col = SeriesData(SeriesId.make("m"))
        col.replace_values(np.empty(0))
        assert col.min_timestamp is None and col.max_timestamp is None
        col.append(0, 1.0)
        assert col.timestamps.tolist() == [0]

    def test_extend_copies_input(self):
        src = np.arange(4)
        vals = np.ones(4)
        col = SeriesData(SeriesId.make("m"), src, vals)
        src[0] = 99
        vals[0] = 99.0
        assert col.timestamps.tolist() == [0, 1, 2, 3]
        assert col.values.tolist() == [1.0, 1.0, 1.0, 1.0]

    @given(st.lists(st.tuples(st.integers(0, 50), finite_values),
                    min_size=0, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_chunked_equals_point_appends(self, pairs):
        """Any interleaving of bulk/point ingest matches pure appends."""
        pairs.sort(key=lambda p: p[0])
        reference = SeriesData(SeriesId.make("ref"))
        chunked = SeriesData(SeriesId.make("chunked"))
        for t, v in pairs:
            reference.append(t, v)
        i = 0
        toggle = True
        while i < len(pairs):
            width = 3 if toggle else 1
            block = pairs[i:i + width]
            if toggle:
                chunked.extend([t for t, _ in block], [v for _, v in block])
            else:
                for t, v in block:
                    chunked.append(t, v)
            toggle = not toggle
            i += width
        assert np.array_equal(reference.timestamps, chunked.timestamps)
        assert np.array_equal(reference.values, chunked.values)


# ----------------------------------------------------------------------
# Columnar tsdb_table
# ----------------------------------------------------------------------
def _mixed_store(seed=0, n_series=12, horizon=60):
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore()
    for i in range(n_series):
        name = ["disk", "cpu", "runtime"][i % 3]
        sid = SeriesId.make(name, {"host": f"h{i % 4}", "idx": str(i)})
        n = int(rng.integers(1, horizon))
        ts = np.sort(rng.integers(0, horizon, n))
        store.insert_array(sid, ts, rng.standard_normal(n))
    return store


class TestColumnarTsdbTable:
    @pytest.mark.parametrize("clip", [(None, None), (10, 40), (59, 60),
                                      (1000, 2000)])
    def test_rows_identical_to_naive(self, clip):
        store = _mixed_store()
        ref = naive_tsdb_table_rows(store, *clip)
        table = tsdb_table(store, *clip)
        assert table.columns == TSDB_COLUMNS
        assert len(table) == len(ref)
        assert table.rows == ref

    def test_cells_are_plain_python_values(self):
        table = tsdb_table(_mixed_store())
        row = table.rows[0]
        assert type(row[0]) is int
        assert type(row[1]) is str
        assert type(row[2]) is dict
        assert type(row[3]) is float

    def test_rows_materialise_lazily(self):
        table = tsdb_table(_mixed_store())
        assert not table.is_materialised()
        assert table.column("value")            # columnar read
        assert not table.is_materialised()
        _ = table.rows
        assert table.is_materialised()

    def test_tag_dict_shared_per_series(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("m", {"host": "h1"}),
                           range(5), np.ones(5))
        table = tsdb_table(store)
        tags = [r[2] for r in table.rows]
        assert all(t is tags[0] for t in tags)

    def test_empty_store(self):
        table = tsdb_table(TimeSeriesStore())
        assert table.columns == TSDB_COLUMNS
        assert len(table) == 0 and table.rows == []

    def test_empty_series_skipped(self):
        """A view's series without observations contribute no rows:
        neither when every series is empty nor beside populated ones."""
        store = _mixed_store()
        empty = {series: SeriesData(series) for series in
                 (SeriesId.make("idle"), SeriesId.make("disk", {"host": "x"}))}
        alone = StoreView(dict(empty), {}, {}, {}, None, 0)
        assert alone.series_ids() and len(tsdb_table(alone)) == 0
        mixed = StoreView(
            {**empty, **{s: store.get(s) for s in store.series_ids()}},
            {}, {}, {}, None, 0)
        assert tsdb_table(mixed).rows == naive_tsdb_table_rows(store)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_stores_match_naive(self, seed):
        store = _mixed_store(seed=seed, n_series=6, horizon=30)
        assert tsdb_table(store).rows == naive_tsdb_table_rows(store)


# ----------------------------------------------------------------------
# Version-keyed caches
# ----------------------------------------------------------------------
class TestStoreVersion:
    def test_monotonic_bumps_per_mutation(self):
        store = TimeSeriesStore()
        assert store.version == 0
        store.insert(SeriesId.make("m"), 0, 1.0)
        v1 = store.version
        store.insert_array(SeriesId.make("n"), [0, 1], [1.0, 2.0])
        v2 = store.version
        store.apply(SeriesId.make("m"), lambda ts, vals: vals * 2)
        v3 = store.version
        other = TimeSeriesStore()
        other.insert(SeriesId.make("o"), 0, 5.0)
        store.merge(other)
        v4 = store.version
        assert 0 < v1 < v2 < v3 < v4

    def test_empty_bulk_insert_is_a_noop(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("m"), [], [])
        assert store.version == 0
        assert len(store) == 0
        assert SeriesId.make("m") not in store

    def test_sql_tsdb_provider_refreshes_after_mutation(self):
        store = TimeSeriesStore()
        sid = SeriesId.make("m")
        store.insert_array(sid, range(4), np.ones(4))
        db = Database()
        register_store(db, store)
        assert db.sql("SELECT SUM(value) s FROM tsdb").rows == [(4.0,)]
        store.apply(sid, lambda ts, vals: vals * 3)
        assert db.sql("SELECT SUM(value) s FROM tsdb").rows == [(12.0,)]
        store.insert(sid, 4, 1.0)
        assert db.sql("SELECT SUM(value) s FROM tsdb").rows == [(13.0,)]

    def test_versioned_provider_not_reinvoked_when_unchanged(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("m"), range(4), np.ones(4))
        db = Database()
        calls = []

        def provider():
            calls.append(1)
            return tsdb_table(store)

        db.register_versioned_provider("t", provider, lambda: store.version)
        db.sql("SELECT * FROM t")
        db.sql("SELECT * FROM t")
        assert len(calls) == 1
        store.insert(SeriesId.make("m"), 4, 1.0)
        db.sql("SELECT * FROM t")
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Store fast paths
# ----------------------------------------------------------------------
class TestStoreFastPaths:
    def test_time_range_constant_time_bookkeeping(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("a"), [5, 6, 7], np.ones(3))
        store.insert_array(SeriesId.make("b"), [2, 9], np.ones(2))
        assert store.time_range() == (2, 9)
        store.insert(SeriesId.make("c"), 15, 1.0)
        assert store.time_range() == (2, 15)

    def test_tag_secondary_index(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("a", {"host": "h1", "dc": "east"}),
                           [0], [1.0])
        store.insert_array(SeriesId.make("a", {"host": "h2"}), [0], [1.0])
        assert store.tag_keys() == ["dc", "host"]
        assert store.tag_values("host") == ["h1", "h2"]
        assert store.tag_values("dc") == ["east"]
        assert store.tag_values("nope") == []

    def test_arrays_returns_read_only_views(self):
        store = TimeSeriesStore()
        store.insert_array(SeriesId.make("m"), range(10), np.ones(10))
        ts, vals = store.arrays(SeriesId.make("m"))
        with pytest.raises(ValueError):
            vals[0] = 5.0
        clipped_ts, _ = store.arrays(SeriesId.make("m"), start=2, end=5)
        assert clipped_ts.base is not None      # a view, not a copy
        assert clipped_ts.tolist() == [2, 3, 4]

    def test_iter_arrays_bulk_path(self):
        store = _mixed_store(seed=9, n_series=4)
        triples = list(store.iter_arrays())
        assert [s for s, _, _ in triples] == store.series_ids()
        for series, ts, vals in triples:
            ref_ts, ref_vals = store.arrays(series)
            assert np.array_equal(ts, ref_ts)
            assert np.array_equal(vals, ref_vals)

    def test_from_arrays_equals_manual_bulk_inserts(self):
        ts = np.arange(5)
        built = TimeSeriesStore.from_arrays({
            SeriesId.make("a"): (ts, np.ones(5)),
            SeriesId.make("b"): (ts, np.zeros(5)),
        })
        manual = TimeSeriesStore()
        manual.insert_array(SeriesId.make("a"), ts, np.ones(5))
        manual.insert_array(SeriesId.make("b"), ts, np.zeros(5))
        assert built.series_ids() == manual.series_ids()
        assert built.num_points() == manual.num_points()

    def test_apply_transform_cannot_corrupt_cache(self):
        store = TimeSeriesStore()
        sid = SeriesId.make("m")
        store.insert_array(sid, range(4), np.ones(4))

        def in_place(ts, vals):
            vals *= 10.0        # mutates its (copied) input
            return vals

        store.apply(sid, in_place)
        _, vals = store.arrays(sid)
        assert vals.tolist() == [10.0] * 4

    def test_scan_reuses_cached_views(self):
        store = TimeSeriesStore()
        sid = SeriesId.make("m")
        store.insert_array(sid, range(10), np.arange(10.0))
        ts1, _ = store.arrays(sid)
        ts2, _ = store.arrays(sid)
        assert ts1 is ts2           # no per-scan rebuild
