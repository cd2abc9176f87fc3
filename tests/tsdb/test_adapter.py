"""Unit tests for the tsdb -> SQL table adapter."""

import numpy as np

from repro.sql import Database
from repro.sql.scan import ScanPredicate
from repro.sql.table import DictColumn
from repro.tsdb import SeriesId, TimeSeriesStore, tsdb_table
from repro.tsdb.adapter import TSDB_COLUMNS, register_store, scan_store
from repro.tsdb.reference import naive_tsdb_table_rows


def _store():
    store = TimeSeriesStore()
    store.insert_array(SeriesId.make("runtime", {"pipeline_name": "p1"}),
                       [0, 1, 2], [10.0, 11.0, 12.0])
    store.insert_array(SeriesId.make("input_rate", {"type": "e1"}),
                       [0, 1, 2], [100.0, 110.0, 90.0])
    return store


class TestTsdbTable:
    def test_schema(self):
        table = tsdb_table(_store())
        assert table.columns == TSDB_COLUMNS

    def test_row_count(self):
        assert len(tsdb_table(_store())) == 6

    def test_time_clipping(self):
        table = tsdb_table(_store(), start=1, end=2)
        assert len(table) == 2
        assert all(row[0] == 1 for row in table.rows)

    def test_tag_map_cell(self):
        table = tsdb_table(_store())
        runtime_rows = [r for r in table.rows if r[1] == "runtime"]
        assert runtime_rows[0][2] == {"pipeline_name": "p1"}

    def test_rows_sorted_by_time_then_name(self):
        table = tsdb_table(_store())
        keys = [(r[0], r[1]) for r in table.rows]
        assert keys == sorted(keys)


class TestRegisterStore:
    def test_lazy_registration_queryable(self):
        db = Database()
        register_store(db, _store())
        result = db.sql(
            "SELECT metric_name, COUNT(*) c FROM tsdb "
            "GROUP BY metric_name ORDER BY metric_name"
        )
        assert result.rows == [("input_rate", 3), ("runtime", 3)]

    def test_tag_subscript_in_sql(self):
        db = Database()
        register_store(db, _store())
        result = db.sql(
            "SELECT tag['pipeline_name'] p, AVG(value) v FROM tsdb "
            "WHERE metric_name = 'runtime' GROUP BY tag['pipeline_name']"
        )
        assert result.rows == [("p1", 11.0)]


class TestDictionaryEncodedColumns:
    """``metric_name``/``tag`` are per-series constants, stored encoded."""

    @staticmethod
    def _gappy_store():
        store = TimeSeriesStore()
        for i, (name, tags) in enumerate([
                ("lat", {"tenant": "a", "host": "h0"}),
                ("cpu", {"tenant": "a"}),
                ("lat", {"tenant": "b", "host": "h1"}),
                ("cpu", {})]):
            ts = np.arange(i, 40, i + 1, dtype=np.int64)
            store.insert_array(SeriesId.make(name, tags), ts,
                               ts.astype(np.float64) * (i + 1) - 7.5)
        return store

    def test_rows_identical_to_the_per_point_reference(self):
        store = self._gappy_store()
        assert tsdb_table(store).rows == naive_tsdb_table_rows(store)
        assert tsdb_table(store, start=5, end=17).rows \
            == naive_tsdb_table_rows(store, 5, 17)

    def test_scan_rows_identical_to_filtering_the_reference(self):
        store = self._gappy_store()
        predicate = ScanPredicate(
            equals=(("metric_name", "lat"),),
            map_equals=(("tag", "tenant", "b"),),
            ranges=(("timestamp", 4, 30),))
        table, report = scan_store(store, predicate)
        assert report.series_scanned == 1
        assert table.rows == [
            row for row in naive_tsdb_table_rows(store, 4, 31)
            if row[1] == "lat" and row[2].get("tenant") == "b"]

    def test_rows_of_one_series_share_one_tag_dict(self):
        table = tsdb_table(self._gappy_store())
        by_series: dict[tuple, set[int]] = {}
        for _, name, tags, _ in table.rows:
            key = (name, tuple(sorted(tags.items())))
            by_series.setdefault(key, set()).add(id(tags))
        assert len(by_series) == 4
        assert all(len(ids) == 1 for ids in by_series.values())
        assert [id(cell) for cell in table.column("tag")] \
            == [id(row[2]) for row in table.rows]

    def test_no_per_row_object_array_is_built(self):
        store = self._gappy_store()
        table = tsdb_table(store)
        ts, name, tag, value = table.column_vectors()
        assert ts.dtype == np.int64 and value.dtype == np.float64
        for col in (name, tag):
            assert isinstance(col, DictColumn)
            assert col.codes.dtype == np.int32
            assert len(col) == len(table) and col.values.size == len(store)
        assert name.codes is tag.codes       # one series code per row
        assert not table.is_materialised()
