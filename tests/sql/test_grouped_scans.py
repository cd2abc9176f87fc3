"""Grouped, exact tsdb scans serve what the row interpreter computes.

The columnar executor asks the ``tsdb`` scan for rows clustered by
series-constant GROUP BY keys (``metric_name``, ``tag['k']``) and
re-applies only the WHERE conjuncts the scan did not apply exactly.
The property below draws stores with shared metric names, missing
tags, NaN and signed zeros, and statements over random series-constant
keys (with and without ``timestamp``), int and float time bounds,
equalities and OR/NOT residuals, HAVING and no ORDER BY, and checks
every served table bit for bit against ``Database(columnar=False)`` and
against the same table registered plainly (no scan at all), before and
after appends and a value-rewriting ``apply``.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import QueryServer
from repro.sql import Database, ParseError
from repro.sql.errors import SchemaError
from repro.sql.scan import ScanGroups, ScanPredicate
from repro.tsdb import SeriesId, TimeSeriesStore, adapter, register_store
from repro.tsdb.adapter import scan_store, tsdb_table
from tests.serve.test_query_server import assert_bitwise_equal, fill

NAMES = ("cpu", "lat", "io")
TENANTS = ("t0", "t1", None)
HOSTS = ("h0", "h1")

KEYS = ("metric_name", "tag['tenant']", "tag['host']")
AGGREGATES = ("COUNT(*)", "SUM(value)", "AVG(value)", "MIN(value)",
              "MAX(value)", "COUNT(DISTINCT tag['host'])",
              "PERCENTILE(value, 0.5)", "SUM(value) / COUNT(*)")
CONJUNCTS = (
    "timestamp >= {a}", "timestamp <= {b}", "timestamp BETWEEN {a} AND {b}",
    "timestamp > {a}", "timestamp < {b}", "timestamp = {a}",
    "timestamp >= {a}.5", "timestamp <= {b}.0", "{a} <= timestamp",
    "metric_name = 'lat'", "metric_name = 'io'", "tag['tenant'] = 't1'",
    "tag['host'] = 'h0'", "value > 0", "(value > 0 OR tag['host'] = 'h1')",
    "NOT (value < -1)", "(metric_name = 'cpu' OR timestamp > {b})",
)


@st.composite
def stores(draw):
    """A store whose series share names, may lack a tenant, and hold NaN,
    +0.0 and -0.0 among their values."""
    store = TimeSeriesStore()
    cells = st.sampled_from([0.0, -0.0, 1.5, -2.0, float("nan"), 3.25])
    for i in range(draw(st.integers(1, 6))):
        tags = {"host": draw(st.sampled_from(HOSTS)), "i": str(i)}
        tenant = draw(st.sampled_from(TENANTS))
        if tenant is not None:
            tags["tenant"] = tenant
        n = draw(st.integers(0, 8))
        ts = np.sort(np.asarray(draw(st.lists(st.integers(0, 12),
                                              min_size=n, max_size=n)),
                                dtype=np.int64))
        values = np.asarray(draw(st.lists(cells, min_size=n, max_size=n)),
                            dtype=np.float64)
        store.insert_array(SeriesId.make(draw(st.sampled_from(NAMES)), tags),
                           ts, values)
    return store


@st.composite
def statements(draw):
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2,
                         unique=True))
    if draw(st.booleans()):
        keys.append("timestamp")
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                               max_size=3, unique=True))
    a, b = sorted(draw(st.integers(-1, 13)) for _ in range(2))
    conjuncts = draw(st.lists(st.sampled_from(CONJUNCTS), max_size=3))
    items = keys + [f"{agg} AS a{i}" for i, agg in enumerate(aggregates)]
    query = f"SELECT {', '.join(items)} FROM tsdb"
    if conjuncts:
        query += " WHERE " + " AND ".join(conjuncts).format(a=a, b=b)
    query += f" GROUP BY {', '.join(keys)}"
    if draw(st.booleans()):
        query += " HAVING COUNT(*) > 1"
    if draw(st.booleans()):
        query += f" ORDER BY {', '.join(keys)}"
    return query


def assert_served_like_oracles(server, store, query):
    served = server.query(query).value
    row_tier = Database(columnar=False)
    register_store(row_tier, store.read_view())
    plain = Database()
    plain.register("tsdb", tsdb_table(store.read_view()))
    assert_bitwise_equal(served, row_tier.sql(query))
    assert_bitwise_equal(served, plain.sql(query))


@given(store=stores(), queries=st.lists(statements(), min_size=1,
                                        max_size=3))
@settings(max_examples=120, deadline=None)
def test_grouped_scans_equal_the_row_tier_and_a_plain_table(store, queries):
    with QueryServer(store, n_workers=1) as server:
        for query in queries:
            assert_served_like_oracles(server, store, query)
        for k, series in enumerate(store.read_view().series_ids()):
            ts = store.arrays(series)[0]
            start = int(ts[-1]) if ts.size else 0
            store.insert_array(series, [start, start + k + 1],
                               [float("nan"), -0.0])
        for query in queries:
            assert_served_like_oracles(server, store, query)
        for series in store.read_view().series_ids()[:1]:
            store.apply(series, lambda ts, vs: -vs[::-1])
        for query in queries:
            assert_served_like_oracles(server, store, query)


@given(store=stores(), lo=st.integers(-1, 13), span=st.integers(0, 14),
       keys=st.lists(st.sampled_from([("metric_name", None),
                                      ("tag", "tenant"), ("tag", "host")]),
                     min_size=1, max_size=3, unique=True),
       name=st.sampled_from([None, "cpu", "lat"]))
@settings(max_examples=100, deadline=None)
def test_a_grouped_scan_is_the_scan_clustered(store, lo, span, keys, name):
    """Put back in table order, a grouped scan's rows are the ungrouped
    scan's; each group is one run of rows with one key, in table order."""
    view = store.read_view()
    plain = ScanPredicate(ranges=(("timestamp", lo, lo + span),),
                          equals=() if name is None
                          else (("metric_name", name),))
    table, report = scan_store(view, plain)
    grouped, grouped_report = scan_store(
        view, ScanPredicate(plain.ranges, plain.equals, group_by=tuple(keys)))
    groups = grouped_report.groups
    assert report.groups is None and isinstance(groups, ScanGroups)
    assert grouped_report.exact == report.exact
    order = np.argsort(groups.positions)
    assert repr(grouped.gather(order).rows) == repr(table.rows)
    cells = [tuple(name if col == "metric_name" else tag.get(key)
                   for col, key in keys)
             for _, name, tag, _ in grouped.rows]
    assert np.all(np.diff(groups.ends) > 0) and (
        not groups.ends.size or groups.ends[-1] == len(grouped))
    seen = set()
    for start, end in zip(groups.starts().tolist(), groups.ends.tolist()):
        assert len(set(cells[start:end])) == 1
        assert cells[start] not in seen
        seen.add(cells[start])
        assert np.all(np.diff(groups.positions[start:end]) > 0)


# ---------------------------------------------------------------------------
# The benchmark mix's GROUP BY statements take the grouped scan
# ---------------------------------------------------------------------------
#: ``sql-cold-mix``'s statements that group by a series constant, restated
#: here over a small store (other literals, a ``host`` tag).
MIX_GROUPED = [
    "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v, MAX(value + 3) AS hi "
    "FROM tsdb GROUP BY metric_name ORDER BY metric_name",
    "SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
    "WHERE timestamp BETWEEN 10 AND 60 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb "
    "WHERE tag['host'] = 'h1' AND timestamp >= 3 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, PERCENTILE(value, 0.99) AS p99 FROM tsdb "
    "WHERE timestamp BETWEEN 10 AND 40 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, COUNT(DISTINCT tag['host']) AS hosts FROM tsdb "
    "WHERE timestamp BETWEEN 11 AND 40 GROUP BY metric_name "
    "ORDER BY metric_name",
]


@pytest.mark.parametrize("query", MIX_GROUPED)
def test_mix_group_bys_take_the_grouped_scan(query):
    store = fill(TimeSeriesStore())
    db = Database()
    register_store(db, store)
    plan = db.explain(query)
    scan = next(line for line in plan.splitlines() if "Scan(tsdb)" in line)
    assert "grouped=" in scan
    assert "engine=row" not in plan
    if "WHERE" in query:
        assert "applied by scan" in plan
    row_tier = Database(columnar=False)
    register_store(row_tier, store)
    assert_bitwise_equal(db.sql(query), row_tier.sql(query))


def test_explain_shows_the_residual_where():
    store = fill(TimeSeriesStore())
    db = Database()
    register_store(db, store)
    plan = db.explain(
        "SELECT metric_name, COUNT(*) AS n FROM tsdb "
        "WHERE timestamp >= 5 AND value > 0 AND timestamp < 50 "
        "GROUP BY metric_name")
    assert "residual=((value > 0) AND (timestamp < 50))" in plan
    assert "grouped=5 groups" in plan
    assert "engine=row" not in plan


# ---------------------------------------------------------------------------
# Synchronous requests run on the caller's thread
# ---------------------------------------------------------------------------
GROUP_BY_HOST = ("SELECT tag['host'], COUNT(*) AS n, AVG(value) AS v "
                 "FROM tsdb GROUP BY tag['host']")


def test_synchronous_requests_equal_submitted_ones():
    with QueryServer(fill(TimeSeriesStore()), n_workers=2,
                     cache_entries=1) as server:
        caller = threading.get_ident()
        assert_bitwise_equal(server.sql(GROUP_BY_HOST),
                             server.submit_sql(GROUP_BY_HOST).result().value)
        direct = server.explain("target_metric")
        pooled = server.submit_explain("target_metric").result().value
        assert direct.to_table() == pooled.to_table()
        drilled = server.drill_down("target_metric", ["cause_metric"])
        assert drilled.to_table() == server.submit_explain(
            "target_metric", search=["cause_metric"],
            kind="drill_down").result().value.to_table()
        ran_on = []
        real = server._run_sql

        def spy(*args):
            ran_on.append(threading.get_ident())
            return real(*args)

        server._run_sql = spy
        server.query(GROUP_BY_HOST)
        assert ran_on == [caller]


@pytest.mark.parametrize("query, error", [
    ("SELECT FROM WHERE", ParseError),
    ("SELECT COUNT(*) FROM nowhere", SchemaError),
])
def test_synchronous_errors_propagate_unchanged(query, error):
    with QueryServer(fill(TimeSeriesStore())) as server:
        with pytest.raises(error) as direct:
            server.query(query)
        with pytest.raises(error) as pooled:
            server.submit_sql(query).result()
    assert str(direct.value) == str(pooled.value)


def test_close_waits_for_synchronous_requests():
    server = QueryServer(fill(TimeSeriesStore()))
    entered, release = threading.Event(), threading.Event()
    real = server._run_sql

    def slow(*args):
        entered.set()
        release.wait(10)
        return real(*args)

    server._run_sql = slow
    results = []
    worker = threading.Thread(
        target=lambda: results.append(server.query(GROUP_BY_HOST)))
    worker.start()
    assert entered.wait(10)
    closer = threading.Thread(target=server.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive()            # still waiting for the request
    release.set()
    closer.join(10)
    worker.join(10)
    assert not closer.is_alive() and len(results) == 1
    with pytest.raises(RuntimeError):
        server.query(GROUP_BY_HOST)


def test_a_view_builds_a_layout_once_and_drops_the_previous_views():
    store = fill(TimeSeriesStore())
    view = store.read_view()
    grouped = ScanPredicate(group_by=(("metric_name", None),))
    table, _ = scan_store(view, grouped)
    assert scan_store(view, grouped)[0] is table     # the layout itself
    series = view.series_ids()[0]
    store.insert(series, int(store.arrays(series)[0][-1]) + 1, 1.0)
    newer = store.read_view()
    assert scan_store(newer, grouped)[0] is not table
    assert not view.derived(adapter._layouts)
