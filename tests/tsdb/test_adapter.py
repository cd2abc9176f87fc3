"""Unit tests for the tsdb -> SQL table adapter."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.sql import Database
from repro.sql.scan import ScanPredicate, ScanReport
from repro.sql.table import DictColumn
from repro.tsdb import SeriesId, TimeSeriesStore, adapter, tsdb_table
from repro.tsdb.adapter import TSDB_COLUMNS, register_store, scan_store
from repro.tsdb.model import SeriesData
from repro.tsdb.storage import DERIVED_VIEWS
from tests.tsdb.reference import naive_tsdb_table_rows


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


#: bounds no int64 timestamp reaches, NULL (``0/0``), and a fraction
BOUNDS = ["1e999", "-1e999", "0/0", "100000000000000000000",
          "-100000000000000000000", "3.5"]
CONDITIONS = (
    [f"timestamp {op} {bound}" for op in ("<", "<=", ">", ">=", "=")
     for bound in BOUNDS]
    + [f"timestamp BETWEEN {lo} AND {hi}" for bound in BOUNDS
       for lo, hi in ((bound, "1e999"), ("-1e999", bound),
                      (bound, bound), (bound, "5"), ("1", bound))])


class TestInfiniteTimestampBounds:
    """Pushdown agrees with a table registered plainly (no scan), on
    both tiers, whatever the timestamp bound."""

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_pushdown_matches_a_plain_table(self, columnar, condition):
        store = _store()
        store.insert_array(SeriesId.make("runtime", {"pipeline_name": "p2"}),
                           [3, 4, 9], [1.5, float("nan"), -2.0])
        pushed = Database(columnar=columnar)
        register_store(pushed, store)
        plain = Database(columnar=columnar)
        plain.register("tsdb", tsdb_table(store))
        query = ("SELECT metric_name, COUNT(*) AS n, MIN(timestamp) AS t, "
                 f"SUM(value) AS s FROM tsdb WHERE {condition} "
                 "GROUP BY metric_name ORDER BY metric_name")
        assert repr(pushed.sql(query).rows) == repr(plain.sql(query).rows)


names = st.sampled_from(["cpu", "lat"])
hosts = st.sampled_from(["h1", "h2"])
scan_values = st.one_of(
    st.floats(-100, 100, allow_nan=False), st.just(float("nan")))


@st.composite
def two_views(draw):
    """A store's view, and its view after one more write.

    Series repeat metric names under several tag sets; timestamps repeat
    within a series; a chunk may be all NaN, and a series may be empty
    (registered as a snapshot load adopts it, with no points).
    """
    store = TimeSeriesStore()
    for i in range(draw(st.integers(1, 5))):
        series = SeriesId.make(draw(names), {"host": draw(hosts),
                                             "i": str(i)})
        if draw(st.integers(0, 5)) == 0:
            store._adopt(SeriesData(series))
            continue
        next_ts = draw(st.integers(0, 5))
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 6))
            ts = next_ts + np.cumsum(draw(st.lists(
                st.integers(0, 3), min_size=n, max_size=n)))
            vals = ([float("nan")] * n if draw(st.booleans())
                    else draw(st.lists(scan_values, min_size=n, max_size=n)))
            store.insert_array(series, ts, vals)
            next_ts = int(ts[-1]) + draw(st.integers(0, 4))
    before = store.read_view()
    target = draw(st.sampled_from(before.series_ids() + [None]))
    if target is None or len(before.get(target)) == 0:
        target = SeriesId.make(draw(names), {"host": draw(hosts)})
        start = 0
    else:
        start = before.get(target).max_timestamp
    store.insert_array(target, [start, start + 2], [draw(scan_values), 1.0])
    return before, store.read_view()


time_bounds = st.one_of(st.none(), st.integers(-2, 30),
                        st.sampled_from([3.5, -0.5]))
value_bounds = st.one_of(st.none(), st.floats(-100, 100, allow_nan=False))


@st.composite
def scan_predicates(draw):
    ranges = []
    lo, hi = draw(time_bounds), draw(time_bounds)
    if lo is not None or hi is not None:
        ranges.append(("timestamp", lo, hi))
    vlo, vhi = draw(value_bounds), draw(value_bounds)
    if vlo is not None or vhi is not None:
        ranges.append(("value", vlo, vhi))
    equals = draw(st.lists(st.one_of(names, st.just("nope"), st.just(5)),
                           max_size=2))
    tags = draw(st.lists(st.tuples(st.sampled_from(["host", "i"]),
                                   st.sampled_from(["h1", "h2", "0", "1"])),
                         max_size=2))
    return ScanPredicate(
        ranges=tuple(ranges),
        equals=tuple(("metric_name", value) for value in equals),
        map_equals=tuple(("tag", key, value) for key, value in tags))


def _kept(view, predicate):
    """The series a predicate's name and tag equalities admit."""
    names_wanted = {value for column, value in predicate.equals}
    tags_wanted: dict[str, set] = {}
    for _, key, value in predicate.map_equals:
        tags_wanted.setdefault(key, set()).add(value)
    return [series for series in view.series_ids()
            if all(value == series.name for value in names_wanted)
            and all(values == {series.tag(key)}
                    for key, values in tags_wanted.items())]


def _exact(predicate):
    """What a scan applies exactly: its time range, string equalities."""
    exact = {("equals", column, value) for column, value in predicate.equals
             if isinstance(value, str)}
    exact |= {("map_equals",) + entry for entry in predicate.map_equals}
    if predicate.range_for("timestamp") != (None, None):
        exact.add(("range", "timestamp"))
    return frozenset(exact)


def _in_window(ts, lo, hi):
    return (lo is None or ts >= lo) and (hi is None or ts <= hi)


def _zone_walk(view, kept, predicate):
    """``(scanned, pruned)`` from each kept series' zone maps, one by one."""
    lo, hi = predicate.range_for("timestamp")
    vlo, vhi = predicate.range_for("value")
    scanned = pruned = 0
    for series in kept:
        for seg in view.chunk_stats(series):
            meets = ((lo is None or seg.timestamps.max >= lo)
                     and (hi is None or seg.timestamps.min <= hi))
            if vlo is not None or vhi is not None:
                meets = meets and seg.values.min is not None \
                    and (vlo is None or seg.values.max >= vlo) \
                    and (vhi is None or seg.values.min <= vhi)
            scanned += meets
            pruned += not meets
    return scanned, pruned


def _bits(rows):
    return [(ts, name, sorted(tag.items()), np.float64(value).tobytes())
            for ts, name, tag, value in rows]


class TestScanIsARowSelection:
    @given(two_views(), scan_predicates())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_report(self, views, predicate):
        """The scan is the full table restricted to the kept series and
        the time window, in table order, bit for bit; the report is a
        per-series zone-map walk, and its reads select exactly the kept
        series (``None``, every series, without an equality)."""
        for view in views:
            table, report = scan_store(view, predicate)
            kept = _kept(view, predicate)
            keys = {(s.name, s.tags) for s in kept}
            lo, hi = predicate.range_for("timestamp")
            want = [row for row in tsdb_table(view).rows
                    if (row[1], tuple(sorted(row[2].items()))) in keys
                    and _in_window(row[0], lo, hi)]
            assert _bits(table.rows) == _bits(want)
            scanned, pruned = _zone_walk(view, kept, predicate)
            assert replace(report, reads=None) == ScanReport(
                rows=len(want), series_total=len(view),
                series_scanned=len(kept), chunks_scanned=scanned,
                chunks_pruned=pruned, exact=_exact(predicate))
            if not (predicate.equals or predicate.map_equals):
                assert report.reads is None
            else:
                assert [s for s in view.series_ids()
                        if any(read(s) for read in report.reads)] == kept

    def test_a_view_builds_its_table_once(self):
        store = _store()
        view = store.read_view()
        assert tsdb_table(view) is tsdb_table(view)
        assert tsdb_table(store) is tsdb_table(view)
        store.insert(SeriesId.make("runtime", {"pipeline_name": "p1"}),
                     3, 13.0)
        after = store.read_view()
        assert after is not view
        assert tsdb_table(after) is not tsdb_table(view)
        assert len(tsdb_table(after)) == len(tsdb_table(view)) + 1

    def test_only_recent_views_keep_their_table(self):
        """A view held past its use (a served result's snapshot) does
        not pin its table once newer views were asked for theirs."""
        store = _store()
        first = store.read_view()
        table = tsdb_table(first)
        series = SeriesId.make("runtime", {"pipeline_name": "p1"})
        held = []                        # as served results hold them
        for ts in range(3, 3 + DERIVED_VIEWS):
            store.insert(series, ts, 1.0)
            held.append(store.read_view())
            tsdb_table(held[-1])
        rebuilt = tsdb_table(first)
        assert rebuilt is not table and rebuilt.rows == table.rows

    def test_racing_first_readers_build_once(self, monkeypatch):
        builds = []
        build = adapter._build_index

        def slow_build(view):
            builds.append(view)
            time.sleep(0.05)
            return build(view)

        monkeypatch.setattr(adapter, "_build_index", slow_build)
        view = _store().read_view()
        barrier = threading.Barrier(8)

        def first_read(_):
            barrier.wait()
            return tsdb_table(view)

        with ThreadPoolExecutor(8) as pool:
            tables = list(pool.map(first_read, range(8)))
        assert builds == [view]
        assert all(table is tables[0] for table in tables)
