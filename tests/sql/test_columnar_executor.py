"""Unit tests for the columnar SQL execution tier.

Every query runs through both ``Database(columnar=True)`` (default) and
``Database(columnar=False)`` (the row-at-a-time reference) over the same
column-backed table; results must be identical in column names, row
order, and cell values.  Where a query is eligible for the fast path we
additionally assert the result came back lazy (column-backed), which
proves the vectorized tier actually ran rather than silently falling
back.
"""

import math

import numpy as np
import pytest

from repro.sql import columnar
from repro.sql.catalog import Database
from repro.sql.errors import ExecutionError
from repro.sql.executor import Executor
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.table import DictColumn, Table
from repro.tsdb import SeriesId, TimeSeriesStore
from repro.tsdb.adapter import register_store


def _tsdb_like(n: int = 60) -> Table:
    rng = np.random.default_rng(7)
    ts = np.arange(n, dtype=np.int64)
    metric = np.empty(n, dtype=object)
    metric[:] = [("cpu", "disk", "net")[i % 3] for i in range(n)]
    tag = np.empty(n, dtype=object)
    tag[:] = [{"host": f"h{i % 4}"} for i in range(n)]
    value = rng.standard_normal(n)
    note = np.empty(n, dtype=object)
    note[:] = [None if i % 5 == 0 else f"n{i % 3}" for i in range(n)]
    return Table.from_columns(
        ["timestamp", "metric_name", "tag", "value", "note"],
        [ts, metric, tag, value, note])


def _pair(table: Table) -> tuple[Database, Database]:
    fast, slow = Database(), Database(columnar=False)
    for db in (fast, slow):
        db.register("tsdb", table)
    return fast, slow


def _rows_equal(a: list[tuple], b: list[tuple]) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for ca, cb in zip(ra, rb):
            if isinstance(ca, float) and isinstance(cb, float) \
                    and math.isnan(ca) and math.isnan(cb):
                continue
            if ca != cb or type(ca) is not type(cb):
                return False
    return True


def assert_parity(query: str, table: Table | None = None,
                  expect_lazy: bool | None = None) -> Table:
    fast, slow = _pair(table if table is not None else _tsdb_like())
    result = fast.sql(query)
    if expect_lazy is not None:
        assert result.is_materialised() is not expect_lazy, (
            f"expected lazy={expect_lazy} for {query!r}")
    reference = slow.sql(query)
    assert result.columns == reference.columns
    assert _rows_equal(result.rows, reference.rows), (
        f"row mismatch for {query!r}:\n  fast {result.rows[:4]}\n"
        f"  ref  {reference.rows[:4]}")
    return result


class TestColumnarFilter:
    def test_numeric_comparisons(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            assert_parity(f"SELECT timestamp, value FROM tsdb "
                          f"WHERE value {op} 0.25", expect_lazy=True)

    def test_and_or_not_three_valued(self):
        assert_parity(
            "SELECT timestamp FROM tsdb WHERE NOT (note = 'n1') "
            "OR (value > 0 AND timestamp < 30)", expect_lazy=True)

    def test_string_equality_on_object_column(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE metric_name = 'cpu'", expect_lazy=True)

    def test_null_semantics_under_not(self):
        # note is NULL every 5th row: NOT (NULL = 'n1') must stay NULL
        # (row dropped), not flip to kept.
        result = assert_parity("SELECT note FROM tsdb "
                               "WHERE NOT (note = 'n1')")
        assert None not in [r[0] for r in result.rows]

    def test_between_and_negated_between(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE timestamp BETWEEN 10 AND 20", expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE timestamp NOT BETWEEN 10 AND 20")

    def test_in_and_not_in(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE metric_name IN ('cpu', 'net')", expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE metric_name NOT IN ('cpu', 'net')")
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE note NOT IN ('n1', NULL)")

    def test_is_null(self):
        assert_parity("SELECT timestamp FROM tsdb WHERE note IS NULL",
                      expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb WHERE note IS NOT NULL")

    def test_like(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE metric_name LIKE 'c%'", expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE note NOT LIKE 'n_'")

    def test_map_subscript(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE tag['host'] = 'h2'", expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE tag['missing'] IS NULL")

    def test_arithmetic_in_predicate(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE value * 2 + 1 > 1.5", expect_lazy=True)
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE timestamp % 7 = 3", expect_lazy=True)

    def test_division_by_zero_is_null(self):
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE value / 0 > 1")
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE value / (timestamp - 10) > 0")

    def test_nan_comparison_is_false_not_null(self):
        n = 6
        value = np.asarray([1.0, float("nan"), -1.0,
                            float("nan"), 0.5, 2.0])
        table = Table.from_columns(
            ["timestamp", "value"],
            [np.arange(n, dtype=np.int64), value])
        assert_parity("SELECT timestamp FROM tsdb WHERE value > 0",
                      table=table)
        assert_parity("SELECT timestamp FROM tsdb WHERE NOT (value > 0)",
                      table=table)

    def test_mixed_type_equality(self):
        assert_parity("SELECT timestamp FROM tsdb WHERE value = 'cpu'")

    def test_int64_overflow_falls_back_to_exact_python_ints(self):
        # Epoch-nanosecond-scale timestamps: ts * 10 wraps in int64 but
        # the row path uses arbitrary-precision ints; the columnar tier
        # must defer.
        table = Table.from_columns(
            ["ts"], [np.asarray([10 ** 18, 5], dtype=np.int64)])
        result = assert_parity("SELECT ts FROM tsdb WHERE ts * 10 > 0",
                               table=table)
        assert result.rows == [(10 ** 18,), (5,)]
        assert_parity("SELECT ts FROM tsdb "
                      "WHERE ts + 20000000000000000000 > 0", table=table)
        assert_parity("SELECT ts, -ts AS neg FROM tsdb WHERE ts > 0",
                      table=table)

    def test_large_int_float_comparison_stays_exact(self):
        # 2**53 + 1 is not float64-representable; numpy would compare
        # it equal to 2.0**53 after promotion, Python compares exactly.
        table = Table.from_columns(
            ["ts"], [np.asarray([2 ** 53 + 1, 7], dtype=np.int64)])
        result = assert_parity(
            f"SELECT ts FROM tsdb WHERE ts = {float(2 ** 53)}",
            table=table)
        assert result.rows == []
        assert_parity(f"SELECT ts FROM tsdb WHERE ts < {float(2 ** 53)}",
                      table=table)

    def test_large_int_division_stays_correctly_rounded(self):
        # Python int/int is correctly rounded; float64-converted
        # operands can be off in the last bit.
        table = Table.from_columns(
            ["a", "b"],
            [np.asarray([3836028225354925625, 10], dtype=np.int64),
             np.asarray([4472196893684131593, 4], dtype=np.int64)])
        fast, slow = _pair(table)
        q = "SELECT a / b AS q FROM tsdb"
        for fa, ro in zip(fast.sql(q).rows, slow.sql(q).rows):
            assert fa[0].hex() == ro[0].hex()

    def test_unsigned_columns_fall_back_to_python_ints(self):
        # numpy wraps uint subtraction/negation; Python goes negative.
        table = Table.from_columns(
            ["u"], [np.asarray([2, 5], dtype=np.uint64)])
        result = assert_parity("SELECT u - 5 AS d, -u AS n FROM tsdb",
                               table=table)
        assert result.rows == [(-3, -2), (0, -5)]
        assert_parity("SELECT u FROM tsdb WHERE u = 2.0", table=table)

    def test_bool_arithmetic_falls_back_to_python_semantics(self):
        # numpy bool arithmetic is logical (True+True is True); Python's
        # is integer (True+True == 2).  Row path must win.
        table = Table.from_columns(
            ["a", "b"], [np.asarray([True, True, False]),
                         np.asarray([True, False, False])])
        result = assert_parity("SELECT a FROM tsdb WHERE a + b = 2",
                               table=table)
        assert result.rows == [(True,)]
        assert_parity("SELECT a FROM tsdb WHERE a - b = 0", table=table)
        assert_parity("SELECT a, -a AS neg FROM tsdb WHERE a = 1",
                      table=table)

    def test_incomparable_ordering_falls_back_to_row_error(self):
        fast, slow = _pair(_tsdb_like())
        with pytest.raises(ExecutionError):
            slow.sql("SELECT timestamp FROM tsdb WHERE metric_name < 5")
        with pytest.raises(ExecutionError):
            fast.sql("SELECT timestamp FROM tsdb WHERE metric_name < 5")


class TestColumnarProject:
    def test_star_is_zero_copy(self):
        result = assert_parity("SELECT * FROM tsdb WHERE value > 0",
                               expect_lazy=True)
        assert result.columns == ["timestamp", "metric_name", "tag",
                                  "value", "note"]

    def test_expressions_and_aliases(self):
        assert_parity("SELECT timestamp, value * 100 AS scaled, "
                      "-value AS neg, CAST(timestamp AS DOUBLE) AS tf "
                      "FROM tsdb WHERE value > 0", expect_lazy=True)

    def test_constant_and_null_columns(self):
        assert_parity("SELECT timestamp, 42 AS k, value / 0 AS z "
                      "FROM tsdb WHERE timestamp < 10")

    def test_limit_offset_distinct(self):
        assert_parity("SELECT metric_name FROM tsdb LIMIT 5")
        assert_parity("SELECT DISTINCT metric_name FROM tsdb")
        assert_parity("SELECT timestamp FROM tsdb "
                      "WHERE value > 0 LIMIT 4 OFFSET 2")

    def test_order_by_runs_columnar(self):
        assert_parity("SELECT timestamp, value FROM tsdb "
                      "WHERE value > 0 ORDER BY value DESC",
                      expect_lazy=True)

    def test_scalar_functions_fall_back_identically(self):
        assert_parity("SELECT UPPER(metric_name) AS u FROM tsdb "
                      "WHERE value > 0", expect_lazy=False)


class TestColumnarAggregate:
    def test_group_by_object_column_all_aggregates(self):
        assert_parity(
            "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s, "
            "AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi "
            "FROM tsdb GROUP BY metric_name", expect_lazy=True)

    def test_group_by_numeric_column(self):
        assert_parity("SELECT timestamp, COUNT(*) AS n FROM tsdb "
                      "GROUP BY timestamp", expect_lazy=True)

    def test_group_order_is_first_occurrence(self):
        metric = np.empty(6, dtype=object)
        metric[:] = ["z", "a", "z", "m", "a", "z"]
        table = Table.from_columns(
            ["metric_name", "value"],
            [metric, np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])])
        result = assert_parity(
            "SELECT metric_name, COUNT(*) AS n FROM tsdb "
            "GROUP BY metric_name", table=table)
        assert [r[0] for r in result.rows] == ["z", "a", "m"]

    def test_multi_key_and_map_key_grouping(self):
        assert_parity("SELECT metric_name, note, COUNT(*) AS n FROM tsdb "
                      "GROUP BY metric_name, note", expect_lazy=True)
        assert_parity("SELECT tag, COUNT(*) AS n FROM tsdb GROUP BY tag",
                      expect_lazy=True)

    def test_count_skips_nulls_in_object_column(self):
        assert_parity("SELECT metric_name, COUNT(note) AS n FROM tsdb "
                      "GROUP BY metric_name", expect_lazy=True)

    def test_filter_then_aggregate(self):
        assert_parity(
            "SELECT metric_name, AVG(value) AS a FROM tsdb "
            "WHERE value > 0 AND timestamp BETWEEN 5 AND 50 "
            "GROUP BY metric_name", expect_lazy=True)

    def test_narrow_float_and_int_columns_compute_as_python_numbers(self):
        # The row path sees float32/int32 cells as Python floats/ints:
        # sums, means, spreads and arithmetic are float64/int64 on both
        # tiers, grouped and ungrouped.
        rng = np.random.default_rng(0)
        table = Table.from_columns(
            ["k", "value", "i"],
            [np.arange(1000) % 3,
             (rng.standard_normal(1000) * 1e3).astype(np.float32),
             rng.integers(-2 ** 31, 2 ** 31, 1000).astype(np.int32)])
        for query in (
                "SELECT k, SUM(value) AS s, AVG(value) AS a, "
                "STDDEV(value) AS sd FROM tsdb GROUP BY k",
                "SELECT SUM(value) AS s, AVG(value) AS a FROM tsdb",
                "SELECT k, SUM(i) AS s, AVG(i * 3) AS a FROM tsdb GROUP BY k",
                "SELECT value + 0.1 AS w, i * i AS sq FROM tsdb"):
            assert_parity(query, table=table, expect_lazy=True)

    def test_global_aggregates(self):
        assert_parity("SELECT COUNT(*) AS n, SUM(value) AS s, "
                      "MIN(timestamp) AS lo FROM tsdb", expect_lazy=True)

    def test_global_aggregate_over_empty_relation(self):
        assert_parity("SELECT COUNT(*) AS n, AVG(value) AS a, "
                      "MAX(value) AS hi FROM tsdb WHERE value > 1e12")

    def test_group_by_over_empty_relation(self):
        assert_parity("SELECT metric_name, COUNT(*) AS n FROM tsdb "
                      "WHERE value > 1e12 GROUP BY metric_name")

    def test_order_by_aggregate_output(self):
        assert_parity("SELECT metric_name, AVG(value) AS a FROM tsdb "
                      "GROUP BY metric_name ORDER BY a DESC")
        assert_parity("SELECT metric_name, COUNT(*) AS n FROM tsdb "
                      "GROUP BY metric_name ORDER BY n, metric_name DESC")

    def test_min_max_with_negative_zero_is_bitwise_identical(self):
        # builtin min keeps the first of equal values (0.0), reduceat
        # may pick -0.0; the columnar tier must defer to stay bitwise.
        value = np.asarray([0.0, -0.0, 1.0, -0.0, 0.0, 2.0])
        metric = np.empty(6, dtype=object)
        metric[:] = ["a", "a", "a", "b", "b", "b"]
        table = Table.from_columns(["metric_name", "value"],
                                   [metric, value])
        fast, slow = _pair(table)
        q = ("SELECT metric_name, MIN(value) AS lo FROM tsdb "
             "GROUP BY metric_name")
        for fa, ro in zip(fast.sql(q).rows, slow.sql(q).rows):
            assert fa[1].hex() == ro[1].hex()

    def test_min_max_with_nan_falls_back_identically(self):
        value = np.asarray([1.0, float("nan"), -1.0, 3.0])
        metric = np.empty(4, dtype=object)
        metric[:] = ["a", "a", "b", "b"]
        table = Table.from_columns(["metric_name", "value"],
                                   [metric, value])
        assert_parity("SELECT metric_name, MAX(value) AS hi FROM tsdb "
                      "GROUP BY metric_name", table=table)

    def test_having_runs_columnar(self):
        assert_parity("SELECT metric_name, COUNT(*) AS n FROM tsdb "
                      "GROUP BY metric_name HAVING COUNT(*) > 5",
                      expect_lazy=True)

    def test_having_on_output_alias(self):
        assert_parity("SELECT metric_name, COUNT(*) AS n FROM tsdb "
                      "GROUP BY metric_name HAVING n > 5",
                      expect_lazy=True)

    def test_having_filters_everything(self):
        result = assert_parity(
            "SELECT metric_name, COUNT(*) AS n FROM tsdb "
            "GROUP BY metric_name HAVING COUNT(*) > 1000",
            expect_lazy=True)
        assert len(result.rows) == 0

    def test_count_distinct_runs_columnar(self):
        assert_parity("SELECT COUNT(DISTINCT metric_name) AS n FROM tsdb",
                      expect_lazy=True)
        assert_parity("SELECT metric_name, COUNT(DISTINCT note) AS n, "
                      "COUNT(DISTINCT tag['host']) AS h, "
                      "COUNT(DISTINCT timestamp % 4) AS m FROM tsdb "
                      "GROUP BY metric_name", expect_lazy=True)

    def test_other_distinct_aggregates_fall_back_identically(self):
        assert_parity("SELECT metric_name, SUM(DISTINCT timestamp % 4) AS s "
                      "FROM tsdb GROUP BY metric_name", expect_lazy=False)

    def test_order_statistics_and_spread_run_columnar(self):
        assert_parity(
            "SELECT metric_name, PERCENTILE(value, 0.99) AS p99, "
            "PERCENTILE(value, 0) AS lo, PERCENTILE(value, 1) AS hi, "
            "MEDIAN(value) AS md, STDDEV(value) AS sd, "
            "VARIANCE(timestamp) AS var FROM tsdb GROUP BY metric_name",
            expect_lazy=True)

    def test_groups_too_small_for_the_aggregate_yield_null(self):
        # value / (timestamp % 2) is NULL on even timestamps: grouping
        # by parity leaves one group all-NULL; grouping by timestamp
        # leaves single-row groups, which STDDEV also answers with NULL.
        result = assert_parity(
            "SELECT timestamp % 2 AS odd, MEDIAN(value / (timestamp % 2)) "
            "AS md, PERCENTILE(value / (timestamp % 2), 0.5) AS p "
            "FROM tsdb GROUP BY timestamp % 2", expect_lazy=True)
        assert dict((r[0], r[1:]) for r in result.rows)[0] == (None, None)
        result = assert_parity(
            "SELECT timestamp, STDDEV(value) AS sd FROM tsdb "
            "WHERE timestamp < 5 GROUP BY timestamp", expect_lazy=True)
        assert [r[1] for r in result.rows] == [None] * 5

    def test_percentile_outside_the_parity_subset_falls_back(self):
        for query in (
                "SELECT PERCENTILE(timestamp, 0.5) AS p FROM tsdb",
                "SELECT metric_name, PERCENTILE(value, timestamp / 100) "
                "AS p FROM tsdb GROUP BY metric_name"):
            assert_parity(query, expect_lazy=False)
        fast, slow = _pair(_tsdb_like())
        for db in (fast, slow):
            with pytest.raises(ExecutionError, match=r"in \[0, 1\]"):
                db.sql("SELECT PERCENTILE(value, 1.5) FROM tsdb")

    def test_expression_group_keys_run_columnar(self):
        assert_parity("SELECT tag['host'], timestamp % 3 AS m, "
                      "COUNT(*) AS n, AVG(value) AS a FROM tsdb "
                      "GROUP BY tag['host'], timestamp % 3",
                      expect_lazy=True)
        assert_parity("SELECT note IS NULL AS missing, COUNT(*) AS n "
                      "FROM tsdb GROUP BY note IS NULL", expect_lazy=True)

    def test_aggregate_expression_arguments(self):
        assert_parity("SELECT metric_name, SUM(value * value) AS sq, "
                      "MIN(value + 1) AS lo FROM tsdb GROUP BY metric_name",
                      expect_lazy=True)

    def test_group_level_item_expressions(self):
        assert_parity("SELECT metric_name, SUM(value) / COUNT(*) AS r, "
                      "MAX(timestamp) - MIN(timestamp) AS span "
                      "FROM tsdb GROUP BY metric_name", expect_lazy=True)

    def test_order_by_aggregate_expression_desc(self):
        assert_parity("SELECT metric_name, SUM(value) AS s FROM tsdb "
                      "GROUP BY metric_name ORDER BY s DESC, metric_name",
                      expect_lazy=True)

    def test_avg_sum_bitwise_vs_row_path(self):
        """SUM/AVG must match the row path bit for bit, not just approx."""
        fast, slow = _pair(_tsdb_like(200))
        q = ("SELECT metric_name, SUM(value) AS s, AVG(value) AS a "
             "FROM tsdb GROUP BY metric_name")
        for fa, ro in zip(fast.sql(q).rows, slow.sql(q).rows):
            assert fa[1].hex() == ro[1].hex()
            assert fa[2].hex() == ro[2].hex()


def _plan_db() -> Database:
    n = 12
    db = Database()
    db.register("t", Table.from_columns(
        ["k", "v", "s", "u"],
        [np.arange(n) % 3, np.arange(n, dtype=np.float64) * 1e4,
         np.array([f"s{i}" for i in range(n)], dtype=object),
         np.arange(n, dtype=np.uint64)]))
    db.register("d", Table.from_columns(
        ["k", "w"], [np.arange(4), np.arange(4) * 10]))
    return db


#: Which compiler entry point serves each engine-bearing EXPLAIN stage.
_STAGE_FN = {"Filter": "try_filter", "Aggregate": "try_aggregate",
             "Project": "try_project", "Join": "try_join"}

#: (query, engine EXPLAIN must show per stage).  No query has two stages
#: served by the same entry point, so "did that entry point return a
#: result" names the engine that ran exactly.
PLAN_QUERIES = [
    ("SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING SUM(v) > 200000 "
     "ORDER BY s", {"Aggregate": "columnar"}),
    ("SELECT v, LAG(v) OVER (ORDER BY v) AS p FROM t WHERE v >= 0 "
     "ORDER BY v DESC",
     {"Filter": "columnar", "Project": "columnar"}),
    ("SELECT t.k, d.w FROM t JOIN d ON t.k = d.k ORDER BY t.v",
     {"Join": "columnar", "Project": "columnar"}),
    # Shapes the compiler accepts, refused on what the columns hold.
    ("SELECT k, MIN(s) FROM t GROUP BY k", {"Aggregate": "row"}),
    ("SELECT k, MAX(s) FROM t WHERE v >= 0 GROUP BY k",
     {"Filter": "columnar", "Aggregate": "row"}),
    ("SELECT v FROM t WHERE u - 5 < 0", {"Filter": "row", "Project": "row"}),
    ("SELECT v FROM t WHERE k * 9223372036854775807 > 0",
     {"Filter": "row", "Project": "row"}),
    ("SELECT k, PERCENTILE(v, k / 2) FROM t GROUP BY k",
     {"Aggregate": "row"}),
    # Sorted-segment aggregates and expression group keys.
    ("SELECT k, COUNT(DISTINCT v) FROM t GROUP BY k",
     {"Aggregate": "columnar"}),
    ("SELECT k % 2 AS p, COUNT(*) FROM t GROUP BY k % 2",
     {"Aggregate": "columnar"}),
    # Shapes the compiler refuses.
    ("SELECT k, SUM(DISTINCT v) FROM t GROUP BY k", {"Aggregate": "row"}),
    ("SELECT UPPER(s) AS x FROM t ORDER BY v DESC", {"Project": "row"}),
    ("SELECT t.k, d.w FROM t CROSS JOIN d", {"Join": "row", "Project": "row"}),
    ("SELECT t.k, d.w FROM t JOIN d ON t.k < d.w",
     {"Join": "row", "Project": "row"}),
    # A handful of rows, or none, is no reason to leave the tier.
    ("SELECT v FROM t WHERE v < 30000 ORDER BY v DESC",
     {"Filter": "columnar", "Project": "columnar"}),
    ("SELECT w FROM d WHERE w > 99 ORDER BY w",
     {"Filter": "columnar", "Project": "columnar"}),
    # A plain projection with no window and no ORDER BY still names
    # the engine that ran it.
    ("SELECT UPPER(s) AS x FROM t", {"Project": "row"}),
    ("SELECT v * 2 AS w FROM t", {"Project": "columnar"}),
]


@pytest.fixture
def compiler_calls(monkeypatch):
    """Every ``columnar.try_*`` call: (entry point, returned a result)."""
    calls: list[tuple[str, bool]] = []

    def spy(name):
        real = getattr(columnar, name)

        def wrapped(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((name, result is not None))
            return result
        return wrapped

    for name in set(_STAGE_FN.values()):
        monkeypatch.setattr(columnar, name, spy(name))
    return calls


def _plan_nodes(plan):
    todo = [plan.root]
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        yield node


def _recorded_engines(plan) -> dict[str, str]:
    engines = {}
    for node in _plan_nodes(plan):
        if node.engine is not None:
            kind = next(k for k in _STAGE_FN if k in node.label.split("(")[0])
            assert kind not in engines
            engines[kind] = node.engine
    return engines


class TestPlanRecordsExecution:
    @pytest.mark.parametrize("query, expected", PLAN_QUERIES)
    def test_recorded_engine_is_the_engine_that_ran(self, query, expected,
                                                    compiler_calls):
        db = _plan_db()
        db.sql(query)
        assert len({name for name, _ in compiler_calls}) \
            == len(compiler_calls)
        ran = dict(compiler_calls)
        recorded = _recorded_engines(db.last_plan)
        assert recorded == expected
        for kind, engine in recorded.items():
            # An entry point that was never called ran nothing columnar.
            assert (engine == "columnar") is ran.get(_STAGE_FN[kind], False)

    @pytest.mark.parametrize("query", [q for q, _ in PLAN_QUERIES])
    def test_plan_does_not_steer_execution(self, query, compiler_calls):
        db = _plan_db()
        stmt = optimize(parse(query))
        runs = []
        for plan in (None, Planner().plan(stmt)):
            del compiler_calls[:]
            table = Executor(db.table, {}, plan=plan,
                             scan_table=db.scan_table).execute(stmt)
            runs.append((table.columns, table.rows, list(compiler_calls)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("source", [
        "t JOIN d ON t.k = d.k WHERE d.w > 10",
        "t JOIN (SELECT k, w FROM d WHERE w > 10) d ON t.k = d.k",
    ])
    def test_tiny_filtered_side_keeps_the_join_columnar(self, source):
        # A two-row filtered dim side must not send the join (and
        # everything above it) to the row interpreter.
        query = f"SELECT t.v, d.w FROM {source} ORDER BY t.v"
        db = _plan_db()
        result = db.sql(query)
        assert [node.engine for node in _plan_nodes(db.last_plan)
                if "Join" in node.label] == ["columnar"]
        assert not result.is_materialised()
        slow = Database(columnar=False)
        for name in ("t", "d"):
            slow.register(name, db.table(name))
        assert _rows_equal(result.rows, slow.sql(query).rows)
        assert len(result) == 4

    def test_explain_shows_stages_in_execution_order_with_actuals(self):
        lines = _plan_db().explain(PLAN_QUERIES[0][0]).splitlines()
        assert [line.split("(")[0].strip() for line in lines] == [
            "Project", "Sort", "Having", "Aggregate", "Scan"]
        assert [line.count("actual=") for line in lines] == [1] * 5
        assert "actual=2 rows" in lines[2]              # after HAVING
        assert "actual=3 rows, engine=columnar" in lines[3]   # groups


def _served_store(n: int = 48) -> TimeSeriesStore:
    """A small store with the benchmark stores' series shapes."""
    store = TimeSeriesStore()
    rng = np.random.default_rng(11)
    ts = np.arange(n, dtype=np.int64)
    for metric in ("frontend_latency", "db_latency", "db_io_wait",
                   "cache_latency"):
        for tenant in range(3):
            store.insert_array(
                SeriesId.make(metric, {"tenant": f"tenant-{tenant}"}),
                ts, rng.standard_normal(n) + tenant)
    for metric in ("service_latency", "queue_depth"):
        for host, link in (("host-0", "core"), ("host-1", "core"),
                           ("host-1", "edge")):
            store.insert_array(
                SeriesId.make(metric, {"host": host, "link": link}),
                ts[::2], rng.standard_normal(n // 2))
    return store


#: The ten ``sql-cold-mix`` statement shapes and the five
#: ``dashboard-ingest`` panel shapes of ``benchmarks/e2e``, restated here
#: (literals aside) so tier-1 holds their fallback count at zero.
SERVED_SHAPES = [
    "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v, "
    "MAX(value + 3) AS hi FROM tsdb GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
    "WHERE timestamp BETWEEN 5 AND 30 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb "
    "WHERE tag['tenant'] = 'tenant-1' AND timestamp >= 3 "
    "GROUP BY metric_name ORDER BY metric_name",
    "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'frontend_latency' AND timestamp >= 3",
    "SELECT timestamp, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'db_latency' AND timestamp >= 3 "
    "GROUP BY timestamp ORDER BY timestamp",
    "SELECT a.timestamp, a.value AS fe, b.value AS io FROM tsdb a "
    "JOIN tsdb b ON a.timestamp = b.timestamp "
    "WHERE a.metric_name = 'frontend_latency' "
    "AND b.metric_name = 'db_io_wait' "
    "AND a.tag['tenant'] = 'tenant-1' AND b.tag['tenant'] = 'tenant-1' "
    "AND a.timestamp >= 3 ORDER BY a.timestamp",
    "SELECT timestamp, value - LAG(value) OVER (ORDER BY timestamp) "
    "AS delta FROM tsdb WHERE metric_name = 'cache_latency' "
    "AND tag['tenant'] = 'tenant-1' AND timestamp >= 3",
    "SELECT timestamp, tag['tenant'], AVG(value) AS latency FROM tsdb "
    "WHERE metric_name = 'frontend_latency' "
    "AND timestamp BETWEEN 5 AND 20 "
    "GROUP BY timestamp, tag['tenant'] ORDER BY timestamp ASC",
    "SELECT metric_name, PERCENTILE(value, 0.99) AS p99 FROM tsdb "
    "WHERE timestamp BETWEEN 5 AND 17 "
    "GROUP BY metric_name ORDER BY metric_name",
    "SELECT metric_name, COUNT(DISTINCT tag['tenant']) AS tenants "
    "FROM tsdb WHERE timestamp BETWEEN 6 AND 17 "
    "GROUP BY metric_name ORDER BY metric_name",
    # dashboard-ingest: the hot panels and the cold scan.
    "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "GROUP BY metric_name ORDER BY metric_name",
    "SELECT metric_name, COUNT(*) AS n FROM tsdb "
    "WHERE tag['host'] = 'host-1' GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'service_latency'",
    "SELECT timestamp, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'queue_depth' AND tag['link'] = 'core' "
    "GROUP BY timestamp ORDER BY timestamp",
    "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
    "WHERE timestamp BETWEEN 7 AND 19",
]


class TestServedShapesNeverLeaveTheTier:
    @pytest.mark.parametrize("query", SERVED_SHAPES)
    def test_no_row_stage_and_no_decode(self, query, monkeypatch):
        fast, slow = Database(), Database(columnar=False)
        store = _served_store()
        for db in (fast, slow):
            register_store(db, store)
        decodes = []
        real = DictColumn.decode
        monkeypatch.setattr(
            DictColumn, "decode",
            lambda self: decodes.append(len(self)) or real(self))
        result = fast.sql(query)
        assert decodes == [], "an encoded column was expanded per row"
        monkeypatch.undo()
        engines = [node.engine for node in _plan_nodes(fast.last_plan)
                   if node.engine is not None]
        assert engines and set(engines) == {"columnar"}, \
            fast.last_plan.render()
        reference = slow.sql(query)
        assert len(result) > 0 and result.columns == reference.columns
        assert _rows_equal(result.rows, reference.rows)


class TestTableColumnarHelpers:
    def test_column_vectors_normalise_and_cache(self):
        table = Table.from_columns(["a", "b"],
                                   [np.arange(3, dtype=np.int64),
                                    ["x", None, "y"]])
        vectors = table.column_vectors()
        assert vectors[0].dtype == np.int64
        assert vectors[1].dtype == object
        assert vectors[1] is table.column_vectors()[1]   # cached wrap
        assert Table(["a"], [(1,)]).column_vectors() is None

    def test_gather_mask_and_indices(self):
        table = Table.from_columns(["a", "v"],
                                   [np.arange(4, dtype=np.int64),
                                    np.asarray([1.0, 2.0, 3.0, 4.0])])
        masked = table.gather(np.asarray(table.column("v")) > 2.0)
        assert not masked.is_materialised()
        assert masked.rows == [(2, 3.0), (3, 4.0)]
        picked = table.gather(np.asarray([3, 0]))
        assert picked.rows == [(3, 4.0), (0, 1.0)]
        row_built = Table(["a"], [(0,), (1,), (2,)])
        assert row_built.gather(np.asarray([True, False, True])).rows \
            == [(0,), (2,)]
        assert row_built.gather(np.asarray([2, 0])).rows == [(2,), (0,)]

    def test_slice_rows_and_limit_stay_lazy(self):
        table = Table.from_columns(["a"], [np.arange(10, dtype=np.int64)])
        sliced = table.slice_rows(2, 5)
        assert not sliced.is_materialised()
        assert sliced.rows == [(2,), (3,), (4,)]
        limited = table.limit(3)
        assert not limited.is_materialised()
        assert limited.rows == [(0,), (1,), (2,)]


def _dim_table() -> Table:
    return Table.from_columns(
        ["name", "owner", "weight"],
        [np.array(["cpu", "net", "x", None], dtype=object),
         np.array(["alice", None, "bob", "eve"], dtype=object),
         np.array([3, 1, 2, 9], dtype=np.int64)])


def _join_pair() -> tuple[Database, Database]:
    fast, slow = _pair(_tsdb_like(40))
    for db in (fast, slow):
        db.register("dim", _dim_table())
    return fast, slow


def assert_join_parity(query: str, expect_lazy: bool | None = None) -> None:
    fast, slow = _join_pair()
    result = fast.sql(query)
    if expect_lazy is not None:
        assert result.is_materialised() is not expect_lazy, (
            f"expected lazy={expect_lazy} for {query!r}")
    reference = slow.sql(query)
    assert result.columns == reference.columns
    assert _rows_equal(result.rows, reference.rows), (
        f"row mismatch for {query!r}:\n  fast {result.rows[:4]}\n"
        f"  ref  {reference.rows[:4]}")


class TestColumnarJoin:
    def test_inner_equi_join(self):
        assert_join_parity(
            "SELECT tsdb.timestamp, tsdb.metric_name, dim.owner "
            "FROM tsdb JOIN dim ON tsdb.metric_name = dim.name",
            expect_lazy=True)

    def test_inner_join_hashes_the_smaller_side_invisibly(self):
        fast, _ = _join_pair()
        for source, note in (("tsdb JOIN dim", False),     # |L| > |R|
                             ("dim JOIN tsdb", True)):      # |L| < |R|
            query = (f"SELECT tsdb.timestamp, tsdb.value, dim.owner "
                     f"FROM {source} ON tsdb.metric_name = dim.name")
            assert_join_parity(query, expect_lazy=True)
            assert ("build=left" in fast.explain(query)) is note

    def test_join_order_window_over_dim_table(self):
        assert_join_parity(
            "SELECT t.timestamp, t.metric_name, d.owner, "
            "LAG(t.value) OVER (PARTITION BY t.metric_name "
            "ORDER BY t.timestamp) AS prev_value "
            "FROM tsdb t JOIN dim d ON t.metric_name = d.name "
            "AND d.weight > 0 ORDER BY t.metric_name, t.timestamp DESC",
            expect_lazy=True)

    def test_left_join_interleaves_null_rows(self):
        assert_join_parity(
            "SELECT tsdb.metric_name, dim.owner, dim.weight FROM tsdb "
            "LEFT JOIN dim ON tsdb.metric_name = dim.name",
            expect_lazy=True)

    def test_right_and_full_join_append_unmatched(self):
        assert_join_parity(
            "SELECT tsdb.metric_name, dim.name FROM tsdb "
            "RIGHT JOIN dim ON tsdb.metric_name = dim.name",
            expect_lazy=True)
        assert_join_parity(
            "SELECT tsdb.metric_name, dim.name FROM tsdb "
            "FULL OUTER JOIN dim ON tsdb.metric_name = dim.name",
            expect_lazy=True)

    def test_residual_predicate_applies_per_candidate(self):
        assert_join_parity(
            "SELECT tsdb.timestamp, dim.weight FROM tsdb JOIN dim "
            "ON tsdb.metric_name = dim.name AND tsdb.value > 0",
            expect_lazy=True)

    def test_multi_key_with_expression_sides(self):
        assert_join_parity(
            "SELECT tsdb.timestamp, dim.weight FROM tsdb JOIN dim "
            "ON tsdb.metric_name = dim.name "
            "AND tsdb.timestamp % 2 = dim.weight % 2",
            expect_lazy=True)

    def test_join_then_filter_aggregate_stays_columnar(self):
        assert_join_parity(
            "SELECT dim.owner, COUNT(*) AS n, SUM(tsdb.value) AS s "
            "FROM tsdb JOIN dim ON tsdb.metric_name = dim.name "
            "WHERE tsdb.timestamp > 3 GROUP BY dim.owner",
            expect_lazy=True)

    def test_non_equi_join_falls_back_identically(self):
        assert_join_parity(
            "SELECT tsdb.timestamp, dim.weight FROM tsdb JOIN dim "
            "ON tsdb.timestamp < dim.weight")

    def test_null_keys_never_match(self):
        # dim.name has a NULL and tsdb.note has NULLs: NULL = NULL must
        # not join.
        assert_join_parity(
            "SELECT tsdb.note, dim.owner FROM tsdb "
            "LEFT JOIN dim ON tsdb.note = dim.name", expect_lazy=True)


class TestColumnarWindows:
    def test_row_number_and_rank(self):
        assert_parity(
            "SELECT timestamp, ROW_NUMBER() OVER "
            "(PARTITION BY metric_name ORDER BY timestamp DESC) AS rn, "
            "RANK(value) OVER (PARTITION BY metric_name) AS rk FROM tsdb",
            expect_lazy=True)

    def test_lag_lead_defaults(self):
        assert_parity(
            "SELECT timestamp, LAG(value) OVER (ORDER BY timestamp) AS pv, "
            "LEAD(value, 2, 0.0) OVER (PARTITION BY metric_name "
            "ORDER BY timestamp) AS nv FROM tsdb", expect_lazy=True)

    def test_lag_over_object_column_with_nulls(self):
        assert_parity(
            "SELECT note, LAG(note, 1, 'start') OVER "
            "(PARTITION BY metric_name ORDER BY timestamp) AS pn FROM tsdb",
            expect_lazy=True)

    def test_moving_avg_partitioned(self):
        assert_parity(
            "SELECT timestamp, MOVING_AVG(value, 4) OVER "
            "(PARTITION BY metric_name ORDER BY timestamp) AS ma FROM tsdb",
            expect_lazy=True)

    def test_window_partition_by_map_column(self):
        assert_parity(
            "SELECT timestamp, ROW_NUMBER() OVER "
            "(PARTITION BY tag ORDER BY timestamp) AS rn FROM tsdb",
            expect_lazy=True)

    def test_window_in_expression(self):
        assert_parity(
            "SELECT value - LAG(value) OVER (ORDER BY timestamp) AS delta "
            "FROM tsdb", expect_lazy=True)


class TestColumnarOrderBy:
    def test_mixed_directions_and_positional(self):
        assert_parity(
            "SELECT metric_name, value, timestamp FROM tsdb "
            "ORDER BY metric_name ASC, 2 DESC", expect_lazy=True)

    def test_order_by_nan_groups_last(self):
        n = 8
        values = np.array([5.0, float("nan"), 1.0, 3.0,
                           float("nan"), -2.0, 0.0, 9.0])
        table = Table.from_columns(
            ["ts", "v"], [np.arange(n, dtype=np.int64), values])
        result = assert_parity("SELECT ts, v FROM tsdb ORDER BY v",
                               table=table, expect_lazy=True)
        got = [v for _, v in result.rows]
        assert got[:6] == [-2.0, 0.0, 1.0, 3.0, 5.0, 9.0]
        assert all(v != v for v in got[6:])

    def test_order_by_output_alias_and_input_column(self):
        assert_parity(
            "SELECT timestamp, value * 2 AS dv FROM tsdb "
            "ORDER BY dv DESC, timestamp", expect_lazy=True)

    def test_order_by_null_first(self):
        assert_parity("SELECT note, timestamp FROM tsdb ORDER BY note",
                      expect_lazy=True)

    def test_order_by_window_alias(self):
        assert_parity(
            "SELECT timestamp, LAG(value) OVER (ORDER BY timestamp) AS pv "
            "FROM tsdb ORDER BY pv DESC", expect_lazy=True)


class TestRowBackedTablesUnaffected:
    def test_row_built_table_takes_row_path(self):
        table = Table(["k", "v"], [("a", 1), ("b", 2), ("a", 3)])
        fast, slow = _pair(table)
        q = "SELECT k, SUM(v) AS s FROM tsdb WHERE v > 1 GROUP BY k"
        assert fast.sql(q).rows == slow.sql(q).rows == [("b", 2.0),
                                                        ("a", 3.0)]


def _keyed(distinct: int, extra: int, seed: int) -> Table:
    """``distinct`` keys, every one present, ``extra`` of them twice."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.concatenate(
        [np.arange(distinct), rng.integers(0, distinct, extra)]))
    return Table.from_columns(
        ["k", "v"], [keys.astype(np.int64), rng.standard_normal(keys.size)])


class TestRadixNarrowedKeys:
    """Group, partition and join key codes sort as uint8/uint16 while
    they fit: results stay bitwise the row path's on both sides of each
    width's edge (largest code 255/256 and 65 535/65 536)."""

    QUERIES = [
        "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t "
        "GROUP BY k",
        "SELECT k, v, ROW_NUMBER() OVER (PARTITION BY k) AS r, "
        "LAG(v) OVER (PARTITION BY k) AS p FROM t",
        # u is the smaller side: built on the right, then on the left
        "SELECT t.k, t.v, u.v AS w FROM t JOIN u ON t.k = u.k",
        "SELECT u.k, u.v, t.v AS w FROM u JOIN t ON u.k = t.k",
    ]

    def test_narrowest_width_that_holds_the_codes(self):
        narrow = columnar._radix_keys
        assert narrow(np.arange(256)).dtype == np.uint8
        assert narrow(np.arange(257)).dtype == np.uint16
        assert narrow(np.arange(65536)).dtype == np.uint16
        assert narrow(np.arange(65537)).dtype == np.int64
        assert narrow(np.arange(-1, 5)).dtype == np.int64

    @pytest.mark.parametrize("distinct", [256, 257, 65536, 65537])
    def test_bitwise_equal_to_the_row_path(self, distinct):
        fast, slow = Database(), Database(columnar=False)
        for db in (fast, slow):
            db.register("t", _keyed(distinct, 64, seed=distinct))
            db.register("u", _keyed(distinct, 0, seed=distinct + 1))
        for query in self.QUERIES:
            result, reference = fast.sql(query), slow.sql(query)
            assert not result.is_materialised(), query
            assert result.columns == reference.columns
            assert _rows_equal(result.rows, reference.rows), query
