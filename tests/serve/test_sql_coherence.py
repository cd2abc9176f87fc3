"""Served SQL across versions equals a cold evaluation, always.

The server carries a SQL result to a newer version when no series it
read was written (``VersionedCache`` swept by the pinned view's write
log), and each version's ``tsdb`` index is patched from the previous
one's when it can be.  This property test interleaves appends (equal
timestamps included), one-point inserts, value rewrites, new series
that do and do not match a cached filter, bursts of more versions than
the write log holds, and repeated pruned and full statements: every
served table must be bitwise the one a fresh ``Database`` computes on
the request's own snapshot, and every patched index the one built from
every column.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serve import QueryServer
from repro.sql import Database
from repro.tsdb import SeriesId, TimeSeriesStore, adapter, register_store
from repro.tsdb.storage import WRITE_LOG_VIEWS
from tests.serve.test_query_server import assert_bitwise_equal
from tests.tsdb.index_parity import assert_index_equal, cold_index

SERIES = [SeriesId.make(f"m{i % 3}", {"host": f"h{i % 4}", "k": str(i)})
          for i in range(6)]
#: New series: the first two match cached filters, the last none.
JOINERS = [SeriesId.make("m1", {"host": "h9"}),
           SeriesId.make("q", {"host": "h1"}),
           SeriesId.make("z", {"host": "h8"})]

STATEMENTS = [
    # full reads
    "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "GROUP BY metric_name ORDER BY metric_name",
    "SELECT COUNT(*) AS n, SUM(value) AS s FROM tsdb "
    "WHERE timestamp BETWEEN 3 AND 20",
    # pruned by series
    "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'm1'",
    "SELECT metric_name, COUNT(*) AS n, MAX(value) AS hi FROM tsdb "
    "WHERE tag['host'] = 'h1' GROUP BY metric_name ORDER BY metric_name",
    "SELECT timestamp, value FROM tsdb "
    "WHERE metric_name = 'm0' AND tag['host'] = 'h3' "
    "ORDER BY timestamp, value",
    "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'q'",
    "SELECT COUNT(*) AS n FROM tsdb "
    "WHERE metric_name = 'm1' AND metric_name = 'm2'",
]

ops = st.lists(st.one_of(
    st.tuples(st.just("sql"), st.integers(0, len(STATEMENTS) - 1)),
    st.tuples(st.just("append"), st.integers(0, len(SERIES) - 1),
              st.integers(0, 2), st.integers(1, 4)),
    st.tuples(st.just("point"), st.integers(0, len(SERIES) - 1),
              st.integers(0, 2)),
    st.tuples(st.just("apply"), st.integers(0, len(SERIES) - 1)),
    st.tuples(st.just("join"), st.integers(0, len(JOINERS) - 1)),
    st.tuples(st.just("burst"), st.integers(0, len(SERIES) - 1))),
    min_size=1, max_size=40)


def filled(seed):
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore()
    for series in SERIES:
        ts = np.sort(rng.integers(0, 24, 20))
        values = rng.standard_normal(20)
        values[rng.random(20) < 0.1] = np.nan
        store.insert_array(series, ts, values)
    return store


def last_ts(store, series):
    return int(store.arrays(series)[0][-1])


@contextmanager
def recording_patches():
    """Every ``(view, index)`` the adapter patched, while open."""
    made = []
    real = adapter._patched_index

    def spy(view, *args):
        index = real(view, *args)
        if index is not None:
            made.append((view, index))
        return index

    with mock.patch.object(adapter, "_patched_index", spy):
        yield made


@given(seed=st.integers(0, 2 ** 16), plan=ops)
@settings(max_examples=40, deadline=None)
def test_every_served_table_equals_a_cold_evaluation(seed, plan):
    store = filled(seed)
    rng = np.random.default_rng(seed)
    served = []
    with recording_patches() as patched, \
            QueryServer(store, n_workers=2) as server:
        for step in plan:
            kind, k = step[:2]
            if kind == "sql":
                served.append((STATEMENTS[k], server.query(STATEMENTS[k])))
            elif kind == "append":
                series, gap, n = SERIES[k], step[2], step[3]
                ts = last_ts(store, series) + gap * np.arange(1, n + 1)
                store.insert_array(series, ts, rng.standard_normal(n))
            elif kind == "point":
                store.insert(SERIES[k], last_ts(store, SERIES[k]) + step[2],
                             float(rng.standard_normal()))
            elif kind == "apply":
                store.apply(SERIES[k], lambda ts, vs: vs[::-1] * 0.5)
            elif kind == "join":
                series = JOINERS[k]
                start = last_ts(store, series) if series in store else 0
                store.insert(series, start + 1, 1.0)
            else:                       # more views than the log holds
                for _ in range(WRITE_LOG_VIEWS + 1):
                    store.insert(SERIES[k], last_ts(store, SERIES[k]) + 1,
                                 1.0)
                    store.read_view()
        for query in STATEMENTS:        # everything once more, at the end
            served.append((query, server.query(query)))
    for query, result in served:
        assert result.version == result.snapshot.version
        check = Database()
        register_store(check, result.snapshot)
        assert_bitwise_equal(result.value, check.sql(query))
    for view, index in patched:
        assert_index_equal(index, cold_index(view))


def test_results_and_indexes_are_carried_across_versions():
    """The property above is not vacuous: across writes to a series no
    pruned statement reads, the pruned results are served from the cache
    at each new version and every version's index is a patch."""
    store = filled(0)
    pruned = STATEMENTS[2:]
    with recording_patches() as patched, QueryServer(store) as server:
        first = [server.query(query) for query in STATEMENTS]
        for k in range(3):
            store.insert(SERIES[2], last_ts(store, SERIES[2]) + k, 1.0)
            full = [server.query(query) for query in STATEMENTS[:2]]
            again = [server.query(query) for query in pruned]
            assert not any(result.cached for result in full)
            assert all(result.cached for result in again)
            assert [result.value for result in again] == \
                [result.value for result in first[2:]]
    assert len(patched) == 3
    for view, index in patched:
        assert_index_equal(index, cold_index(view))
