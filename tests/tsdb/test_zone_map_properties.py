"""Property tests for zone maps and zone-map-pruned scans.

Two guarantees back the predicate-pushdown scan path:

1. **Zone maps are exact**: after any mix of point appends, bulk
   appends, ``apply`` value rewrites and ``merge``, every sealed
   segment's recorded ranges equal a brute-force ``nanmin``/``nanmax``
   over the consolidated columns, the segments tile ``[0, len)``, and
   every mutation bumps ``store.version``.
2. **Pruning is invisible**: a zone-map-pruned scan returns a
   conservative superset in unpruned order, so re-applying the exact
   predicate — or running the full SQL WHERE — gives results bitwise
   identical to the unpruned path.
"""

import math

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.sql.catalog import Database
from repro.tsdb.adapter import register_store, tsdb_table
from repro.tsdb.model import ChunkStats, ColumnStats
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb import SeriesId

metric_names = st.sampled_from(["cpu", "disk", "runtime"])
hosts = st.sampled_from(["h1", "h2", "h3"])
values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.just(float("nan")),
)


@st.composite
def grown_stores(draw):
    """A store grown through the full mutation surface.

    Several series, each receiving multiple bulk chunks (so scans have
    something to prune), a sprinkling of point appends, optionally an
    ``apply`` rewrite and a ``merge`` from a second store.
    """
    store = TimeSeriesStore()
    n_series = draw(st.integers(1, 4))
    for i in range(n_series):
        sid = SeriesId.make(draw(metric_names),
                            {"host": draw(hosts), "idx": str(i)})
        next_ts = 0
        for _ in range(draw(st.integers(1, 3))):        # several chunks
            n = draw(st.integers(1, 8))
            steps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
            ts = next_ts + np.cumsum(np.asarray(steps, dtype=np.int64))
            vals = [draw(values) for _ in range(n)]
            store.insert_array(sid, ts, vals)
            next_ts = int(ts[-1]) + draw(st.integers(0, 10))
        for _ in range(draw(st.integers(0, 3))):        # point appends
            store.insert(sid, next_ts, draw(values))
            next_ts += draw(st.integers(0, 3))
    if draw(st.booleans()):                             # fault overlay
        target = draw(st.sampled_from(store.series_ids()))
        offset = draw(st.floats(-10, 10, allow_nan=False))
        store.apply(target, lambda ts, vals: vals + offset)
    if draw(st.booleans()):                             # merge
        other = TimeSeriesStore()
        sid = SeriesId.make(draw(metric_names), {"host": draw(hosts)})
        n = draw(st.integers(1, 6))
        other.insert_array(sid, range(n),
                           [draw(values) for _ in range(n)])
        store.merge(other)
    return store


def _brute_range(column: np.ndarray) -> ColumnStats:
    present = column[~np.isnan(column)] if column.dtype.kind == "f" \
        else column
    if not present.size:
        return ColumnStats(min=None, max=None)
    kind = int if column.dtype.kind == "i" else float
    return ColumnStats(min=kind(np.min(present)), max=kind(np.max(present)))


def _recomputed_segments(store, sid):
    """Brute-force zone maps from the consolidated columns."""
    ts, vals = store.arrays(sid)
    return [
        ChunkStats(start=seg.start, end=seg.end,
                   timestamps=_brute_range(ts[seg.start:seg.end]),
                   values=_brute_range(vals[seg.start:seg.end]))
        for seg in store.chunk_stats(sid)
    ]


class TestZoneMapExactness:
    @given(grown_stores())
    @settings(max_examples=40, deadline=None)
    def test_segments_tile_and_stats_are_exact(self, store):
        for sid in store.series_ids():
            segments = store.chunk_stats(sid)
            ts, _ = store.arrays(sid)
            # Tiling: contiguous [0, len) coverage.
            assert segments[0].start == 0
            assert segments[-1].end == ts.size
            for prev, cur in zip(segments, segments[1:]):
                assert prev.end == cur.start
            # Exactness: incrementally-maintained stats equal recompute.
            assert list(segments) == _recomputed_segments(store, sid)

    @given(grown_stores(), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_every_mutation_bumps_version(self, store, n_extra):
        sid = store.series_ids()[0]
        ts, _ = store.arrays(sid)
        next_ts = int(ts[-1]) + 1
        seen = {store.version}

        store.insert(sid, next_ts, 1.0)
        assert store.version not in seen
        seen.add(store.version)

        store.insert_array(sid, range(next_ts + 1, next_ts + 2 + n_extra),
                           np.ones(1 + n_extra))
        assert store.version not in seen
        seen.add(store.version)

        store.apply(sid, lambda t, v: v * 2.0)
        assert store.version not in seen
        seen.add(store.version)

        other = TimeSeriesStore()
        other.insert_array(SeriesId.make("merged"), [0, 1], [1.0, 2.0])
        store.merge(other)
        assert store.version not in seen
        # Zone maps stay exact through the whole sequence.
        assert (list(store.chunk_stats(sid))
                == _recomputed_segments(store, sid))


time_bounds = st.one_of(st.none(), st.integers(-5, 60))
value_bounds = st.one_of(st.none(),
                         st.floats(-1e6, 1e6, allow_nan=False,
                                   allow_infinity=False))


class TestPrunedScanParity:
    @given(grown_stores(), time_bounds, time_bounds)
    @settings(max_examples=40, deadline=None)
    def test_time_only_scan_is_bitwise(self, store, start, end):
        """With no value range, the pruned scan equals the plain clip."""
        for sid in store.series_ids():
            ref_ts, ref_vals = store.arrays(sid, start, end)
            got_ts, got_vals, scanned, pruned = store.scan_arrays(
                sid, start, end)
            assert scanned + pruned == len(store.chunk_stats(sid))
            assert np.array_equal(got_ts, ref_ts)
            assert np.array_equal(got_vals, ref_vals, equal_nan=True)

    @given(grown_stores(), time_bounds, time_bounds,
           value_bounds, value_bounds)
    @settings(max_examples=40, deadline=None)
    def test_value_pruned_scan_refilters_bitwise(self, store, start, end,
                                                 lo, hi):
        """Value pruning keeps whole chunks: the result is a superset of
        the exact matches, in unpruned order, so re-applying the exact
        predicate recovers the unpruned answer bit for bit."""
        for sid in store.series_ids():
            ref_ts, ref_vals = store.arrays(sid, start, end)
            got_ts, got_vals, _, _ = store.scan_arrays(
                sid, start, end, lo, hi)

            def exact(ts, vals):
                mask = np.ones(ts.size, dtype=bool)
                if lo is not None:
                    mask &= vals >= lo          # NaN compares False
                if hi is not None:
                    mask &= vals <= hi
                return ts[mask], vals[mask]

            want_ts, want_vals = exact(ref_ts, ref_vals)
            have_ts, have_vals = exact(got_ts, got_vals)
            assert np.array_equal(have_ts, want_ts)
            # equal_nan: with no value bound, NaN rows survive unfiltered
            # on both sides and must pair up.
            assert np.array_equal(have_vals, want_vals, equal_nan=True)


WHERE_CLAUSES = [
    "",
    "WHERE timestamp >= 5",
    "WHERE timestamp >= 3 AND timestamp < 20",
    "WHERE metric_name = 'cpu'",
    "WHERE metric_name = 'disk' AND timestamp < 15",
    "WHERE tag['host'] = 'h1'",
    "WHERE metric_name = 'cpu' AND tag['host'] = 'h2' AND timestamp >= 4",
    "WHERE value > 0",
    "WHERE metric_name = 'runtime' AND value <= 100 AND timestamp >= 2",
    "WHERE metric_name = 'nope'",
    "WHERE metric_name = 'disk' AND tag['host'] = 'h1' "
    "AND timestamp BETWEEN 3 AND 20",
]
QUERIES = [
    "SELECT * FROM tsdb {where}",
    "SELECT timestamp, value FROM tsdb {where} LIMIT 7",
    ("SELECT metric_name, COUNT(*) AS n, MIN(value) AS lo "
     "FROM tsdb {where} GROUP BY metric_name"),
    ("SELECT metric_name, COUNT(*) AS n, AVG(value) AS avg_value "
     "FROM tsdb {where} GROUP BY metric_name"),
]


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for ca, cb in zip(ra, rb):
            both_nan = (isinstance(ca, float) and isinstance(cb, float)
                        and math.isnan(ca) and math.isnan(cb))
            if not both_nan and ca != cb:
                return False
    return True


class TestPrunedQueryParity:
    @given(grown_stores(), st.sampled_from(WHERE_CLAUSES),
           st.sampled_from(QUERIES))
    @settings(max_examples=60, deadline=None)
    def test_sql_results_match_unpruned_database(self, store, where, query):
        pruned = Database()
        register_store(pruned, store)
        unpruned = Database()
        unpruned.register_versioned_provider(
            "tsdb", lambda: tsdb_table(store), lambda: store.version)

        sql = query.format(where=where)
        got = pruned.sql(sql)
        want = unpruned.sql(sql)
        assert got.columns == want.columns
        assert _rows_equal(got.rows, want.rows)
