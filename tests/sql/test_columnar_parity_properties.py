"""Property-based row-vs-columnar executor parity.

Generates random tsdb-shaped column-backed tables and random
SELECT/WHERE/GROUP BY statements drawn from the dialect, then asserts
the columnar executor and the row-at-a-time reference produce identical
tables: same column names, same row order, same cell values (NaN cells
compare equal to NaN — both paths must produce NaN in the same places —
and a -0.0 is not a 0.0).

Values include NaN, ±inf and both zeros; group keys include NULLs, map
subscripts and arithmetic; nullable aggregate arguments leave some
groups all-NULL and timestamps leave some with one row.  The generator
intentionally strays outside the columnar-compilable subset (scalar
functions, NaN values under MIN/MAX, ``SUM(DISTINCT ...)``); those
cases exercise the fallback seam, which must be invisible in the
output.

Every table is drawn once and built twice — flat object columns, and
the same cells dictionary-encoded the way the tsdb adapter encodes
``metric_name``/``tag`` — so one property can also state that the
encoding is invisible on both tiers.
"""

import math

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.sql.catalog import Database
from repro.sql.table import DictColumn, Table

METRICS = ["cpu", "disk", "net"]
HOSTS = ["h0", "h1", None]
NOTES = [None, "n0", "n1", "long-note"]

NUM_COLS = ["ts", "v", "f", "i"]
STR_COLS = ["metric", "note"]
ALL_COLS = NUM_COLS + STR_COLS


VALUES = st.one_of(
    st.floats(-50, 50),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]))


@st.composite
def table_pairs(draw):
    """One logical table as ``(flat, dictionary-encoded)`` builds.

    ``metric`` and ``tag`` are constants of the row's *series*, as in
    the tsdb table (both encoded columns share the series code vector,
    and two series may repeat a metric or a tag map); ``note`` varies by
    row over a dictionary with a NULL and a never-referenced entry.
    """
    n = draw(st.integers(0, 25))
    ts = np.asarray(
        sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))),
        dtype=np.int64).reshape(n)
    v = np.asarray(draw(st.lists(VALUES, min_size=n, max_size=n)),
                   dtype=np.float64).reshape(n)
    # Narrow dtypes: the row path sees their cells as Python floats/ints.
    f32 = np.asarray(draw(st.lists(VALUES, min_size=n, max_size=n)),
                     dtype=np.float32).reshape(n)
    i32 = np.asarray(draw(st.lists(st.integers(-1000, 1000), min_size=n,
                                   max_size=n)), dtype=np.int32).reshape(n)
    n_series = draw(st.integers(1, 5))
    metrics = np.empty(n_series, dtype=object)
    tags = np.empty(n_series, dtype=object)
    for i in range(n_series):
        metrics[i] = draw(st.sampled_from(METRICS))
        host = draw(st.sampled_from(HOSTS))
        tags[i] = {} if host is None else {"host": host}
    series = np.asarray(
        draw(st.lists(st.integers(0, n_series - 1), min_size=n, max_size=n)),
        dtype=np.int32).reshape(n)
    notes = np.array(NOTES + ["unused"], dtype=object)
    note = np.asarray(
        draw(st.lists(st.integers(0, len(NOTES) - 1),
                      min_size=n, max_size=n)), dtype=np.int32).reshape(n)
    columns = ["ts", "metric", "tag", "v", "note", "f", "i"]
    flat = Table.from_columns(
        columns, [ts, metrics[series], tags[series], v, notes[note], f32, i32])
    encoded = Table.from_columns(
        columns, [ts, DictColumn(series, metrics), DictColumn(series, tags),
                  v, DictColumn(note, notes), f32, i32])
    return flat, encoded


def tsdb_tables():
    """The flat build alone."""
    return table_pairs().map(lambda pair: pair[0])


@st.composite
def predicates(draw, depth: int = 2):
    kind = draw(st.sampled_from(
        ["cmp", "between", "in", "null", "like", "sub", "bool"]
        + (["and", "or", "not"] if depth > 0 else [])))
    if kind == "and" or kind == "or":
        left = draw(predicates(depth=depth - 1))
        right = draw(predicates(depth=depth - 1))
        return f"({left} {kind.upper()} {right})"
    if kind == "not":
        return f"(NOT {draw(predicates(depth=depth - 1))})"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        col = draw(st.sampled_from(NUM_COLS))
        use_arith = draw(st.booleans())
        lhs = col if not use_arith else (
            f"({col} {draw(st.sampled_from(['+', '-', '*', '/', '%']))} "
            f"{draw(st.integers(-3, 3))})")
        return f"({lhs} {op} {draw(st.integers(-20, 20))})"
    if kind == "between":
        lo = draw(st.integers(-5, 20))
        neg = draw(st.booleans())
        col = draw(st.sampled_from(NUM_COLS))
        return (f"({col} {'NOT ' if neg else ''}BETWEEN {lo} "
                f"AND {lo + draw(st.integers(0, 15))})")
    if kind == "in":
        col = draw(st.sampled_from(STR_COLS))
        neg = draw(st.booleans())
        items = draw(st.lists(
            st.sampled_from(["'cpu'", "'n0'", "'x'", "NULL"]),
            min_size=1, max_size=3))
        return f"({col} {'NOT ' if neg else ''}IN ({', '.join(items)}))"
    if kind == "null":
        col = draw(st.sampled_from(ALL_COLS))
        neg = draw(st.booleans())
        return f"({col} IS {'NOT ' if neg else ''}NULL)"
    if kind == "like":
        col = draw(st.sampled_from(STR_COLS))
        pattern = draw(st.sampled_from(["c%", "n_", "%o%", ""]))
        neg = draw(st.booleans())
        return f"({col} {'NOT ' if neg else ''}LIKE '{pattern}')"
    if kind == "sub":
        op = draw(st.sampled_from(["= 'h0'", "IS NULL", "<> 'h1'"]))
        return f"(tag['host'] {op})"
    value = draw(st.sampled_from(
        ["TRUE", "FALSE", "NULL", "(metric = 'cpu')"]))
    return f"({value})"


WINDOW_ITEMS = [
    "ROW_NUMBER() OVER (PARTITION BY metric ORDER BY ts) AS rn",
    "RANK(v) OVER (PARTITION BY metric) AS rk",
    "LAG(v) OVER (ORDER BY ts) AS pv",
    "LEAD(v, 2, 0.0) OVER (PARTITION BY metric ORDER BY ts DESC) AS nv",
    "LAG(note, 1, 'none') OVER (PARTITION BY tag ORDER BY ts) AS pn",
    "MOVING_AVG(v, 3) OVER (PARTITION BY metric ORDER BY ts) AS ma",
    "MOVING_AVG(f, 2) OVER (ORDER BY ts) AS maf",
]


@st.composite
def statements(draw):
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    if draw(st.booleans()):
        # Aggregate query.
        keys = draw(st.lists(
            st.sampled_from(ALL_COLS + ["tag", "tag['host']", "ts % 3"]),
            min_size=1, max_size=2, unique=True))
        aggs = draw(st.lists(st.sampled_from(
            ["COUNT(*) AS n", "SUM(v) AS s", "AVG(v) AS a",
             "MIN(v) AS lo", "MAX(v) AS hi", "MIN(ts) AS t0",
             "COUNT(note) AS cn", "MEDIAN(v) AS md",
             "SUM(v * v) AS sq", "SUM(v) / COUNT(*) AS r",
             "MAX(ts) - MIN(ts) AS span", "COUNT(*) + 1 AS n1",
             "PERCENTILE(v, 0) AS p0", "PERCENTILE(v, 0.5) AS p50",
             "PERCENTILE(v, 0.99) AS p99", "PERCENTILE(v, 1) AS p100",
             "STDDEV(v) AS sd", "VARIANCE(v) AS var",
             "COUNT(DISTINCT note) AS dn", "COUNT(DISTINCT metric) AS dm",
             "COUNT(DISTINCT tag['host']) AS dh", "COUNT(DISTINCT v) AS dv",
             # NULL on even timestamps: some groups end up all-NULL.
             "MEDIAN(v / (ts % 2)) AS mdn", "STDDEV(v / (ts % 2)) AS sdn",
             "PERCENTILE(v / (ts % 2), 0.5) AS pn",
             "SUM(DISTINCT v) AS sdv", "SUM(f) AS sf", "AVG(f) AS af",
             "STDDEV(f) AS sdf", "MEDIAN(f) AS mdf", "MAX(f) AS hf",
             "SUM(i) AS si", "AVG(i) AS ai", "VARIANCE(i) AS vi",
             "SUM(f * i) AS sfi"]),
            min_size=1, max_size=3, unique=True))
        items = ", ".join(keys + aggs)
        having = draw(st.sampled_from(
            ["", "", "", " HAVING COUNT(*) > 1", " HAVING SUM(v) > 0",
             " HAVING MIN(ts) >= 2 AND COUNT(*) >= 1"]))
        order = ""
        if draw(st.booleans()):
            pool = keys + [agg.rpartition(" AS ")[2] for agg in aggs]
            order_keys = draw(st.lists(st.sampled_from(pool),
                                       min_size=1, max_size=2, unique=True))
            order = " ORDER BY " + ", ".join(
                key + draw(st.sampled_from(["", " ASC", " DESC"]))
                for key in order_keys)
        return (f"SELECT {items} FROM t{where} "
                f"GROUP BY {', '.join(keys)}{having}{order}")
    # Plain select.
    exprs = draw(st.lists(st.sampled_from(
        ["ts", "v", "metric", "note", "tag", "v * 2 AS dv",
         "ts + v AS tv", "tag['host'] AS host", "UPPER(metric) AS um",
         "CAST(ts AS DOUBLE) AS tsd", "f", "i", "f * i AS fi"]
        + WINDOW_ITEMS),
        min_size=1, max_size=4, unique=True))
    order = ""
    if draw(st.integers(0, 2)) == 0:
        n_keys = draw(st.integers(1, 2))
        keys = []
        for _ in range(n_keys):
            base = draw(st.one_of(
                st.sampled_from(["ts", "v", "metric", "note"]),
                st.integers(1, len(exprs))))
            keys.append(
                f"{base}{draw(st.sampled_from(['', ' ASC', ' DESC']))}")
        order = " ORDER BY " + ", ".join(keys)
    limit = f" LIMIT {draw(st.integers(0, 10))}" \
        if draw(st.booleans()) else ""
    distinct = "DISTINCT " if draw(st.integers(0, 4)) == 0 else ""
    return f"SELECT {distinct}{', '.join(exprs)} FROM t{where}{order}{limit}"


def _cells_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        if math.copysign(1.0, a) != math.copysign(1.0, b):
            return False             # -0.0 is not 0.0
    return a == b and type(a) is type(b)


def _assert_same_table(result, reference, query) -> None:
    assert result.columns == reference.columns, query
    assert len(result.rows) == len(reference.rows), query
    for got, want in zip(result.rows, reference.rows):
        assert len(got) == len(want), query
        for ca, cb in zip(got, want):
            assert _cells_equal(ca, cb), (
                f"cell mismatch {ca!r} vs {cb!r} for {query!r}")


@given(tsdb_tables(), statements())
@settings(max_examples=200, deadline=None)
def test_columnar_matches_row_executor(table, query):
    fast, slow = Database(), Database(columnar=False)
    fast.register("t", table)
    slow.register("t", table)
    _assert_same_table(fast.sql(query), slow.sql(query), query)


@given(table_pairs(), statements())
@settings(max_examples=200, deadline=None)
def test_dictionary_encoding_is_invisible(pair, query):
    """Flat or encoded, columnar or row: one result, cell for cell."""
    flat, encoded = pair
    _assert_same_table(encoded, flat, "the two builds")
    results = []
    for table in (flat, encoded):
        for columnar in (False, True):
            db = Database(columnar=columnar)
            db.register("t", table)
            results.append(db.sql(query))
    for other in results[1:]:
        _assert_same_table(other, results[0], query)


@st.composite
def dim_tables(draw):
    n = draw(st.integers(0, 8))
    name = np.empty(n, dtype=object)
    owner = np.empty(n, dtype=object)
    for i in range(n):
        name[i] = draw(st.sampled_from(METRICS + ["other", None]))
        owner[i] = draw(st.sampled_from(["alice", "bob", None]))
    w = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                   dtype=np.int64).reshape(n)
    return Table.from_columns(["name", "owner", "w"], [name, owner, w])


@st.composite
def join_queries(draw):
    kind = draw(st.sampled_from(
        ["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN",
         "RIGHT JOIN", "FULL OUTER JOIN"]))
    condition = "t.metric = d.name"
    if draw(st.booleans()):
        condition += " AND t.ts % 3 = d.w % 3"
    condition += draw(st.sampled_from(
        ["", " AND t.v > 0", " AND d.w > 1", " AND t.ts < d.w * 10"]))
    items = draw(st.sampled_from(
        ["t.ts, t.metric, d.owner, d.w", "*", "t.v, d.name, d.w"]))
    where = draw(st.sampled_from(["", " WHERE t.v > 0", " WHERE d.w > 0"]))
    return f"SELECT {items} FROM t {kind} d ON {condition}{where}"


@given(table_pairs(), dim_tables(), join_queries())
@settings(max_examples=150, deadline=None)
def test_join_parity(pair, dim, query):
    fast, slow = Database(), Database(columnar=False)
    for db, fact in zip((fast, slow), reversed(pair)):    # fast: encoded
        db.register("t", fact)
        db.register("d", dim)
    _assert_same_table(fast.sql(query), slow.sql(query), query)


@given(tsdb_tables(), predicates())
@settings(max_examples=150, deadline=None)
def test_filter_parity_and_optimizer_interplay(table, predicate):
    """WHERE parity with and without the optimizer's constant folding."""
    query = f"SELECT ts, metric, v FROM t WHERE {predicate}"
    results = []
    for columnar in (True, False):
        for optimize in (True, False):
            db = Database(optimize_queries=optimize, columnar=columnar)
            db.register("t", table)
            results.append(db.sql(query))
    first = results[0]
    for other in results[1:]:
        assert other.columns == first.columns, query
        assert len(other.rows) == len(first.rows), query
        for got, want in zip(other.rows, first.rows):
            for ca, cb in zip(got, want):
                assert _cells_equal(ca, cb), query
