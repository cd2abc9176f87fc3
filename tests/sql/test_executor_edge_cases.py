"""Edge-case coverage for the SQL executor."""

import pytest

from repro.sql import Database, ExecutionError, Table
from repro.sql.errors import SchemaError


@pytest.fixture
def edge_db() -> Database:
    db = Database()
    db.register("t", Table(["k", "v", "s"], [
        ("a", 1, "x"), ("b", None, "y"), ("c", 3, None), ("a", 4, "x"),
    ]))
    return db


class TestNullEdgeCases:
    def test_in_list_with_null_candidate(self, edge_db):
        # v IN (1, NULL): true for v=1, NULL (filtered) otherwise.
        result = edge_db.sql("SELECT k FROM t WHERE v IN (1, NULL)")
        assert result.rows == [("a",)]

    def test_not_in_with_null_candidate_matches_nothing(self, edge_db):
        result = edge_db.sql("SELECT k FROM t WHERE v NOT IN (1, NULL)")
        assert result.rows == []

    def test_null_in_group_key_forms_its_own_group(self, edge_db):
        result = edge_db.sql(
            "SELECT s, COUNT(*) c FROM t GROUP BY s ORDER BY c DESC, s")
        assert ("x", 2) in result.rows
        assert (None, 1) in result.rows

    def test_between_with_null_bound(self, edge_db):
        result = edge_db.sql(
            "SELECT k FROM t WHERE v BETWEEN NULL AND 10")
        assert result.rows == []

    def test_coalesce_in_order_by(self, edge_db):
        result = edge_db.sql(
            "SELECT k, COALESCE(v, 0) cv FROM t ORDER BY COALESCE(v, 0)")
        assert result.column("cv") == [0, 1, 3, 4]


class TestExpressionsInGroupBy:
    def test_case_in_group_by(self, edge_db):
        result = edge_db.sql("""
            SELECT CASE WHEN v IS NULL THEN 'missing' ELSE 'present' END
                       AS status,
                   COUNT(*) c
            FROM t GROUP BY CASE WHEN v IS NULL THEN 'missing'
                            ELSE 'present' END
            ORDER BY status
        """)
        assert result.rows == [("missing", 1), ("present", 3)]

    def test_nested_functions_in_group_by(self, edge_db):
        result = edge_db.sql(
            "SELECT UPPER(COALESCE(s, 'z')) g, COUNT(*) c FROM t "
            "GROUP BY UPPER(COALESCE(s, 'z')) ORDER BY g")
        assert result.column("g") == ["X", "Y", "Z"]


class TestMiscBehaviour:
    def test_limit_zero(self, edge_db):
        assert len(edge_db.sql("SELECT * FROM t LIMIT 0")) == 0

    def test_offset_beyond_end(self, edge_db):
        assert len(edge_db.sql(
            "SELECT * FROM t ORDER BY k LIMIT 10 OFFSET 99")) == 0

    def test_cross_type_comparison_raises(self, edge_db):
        with pytest.raises(ExecutionError):
            edge_db.sql("SELECT k FROM t WHERE s > 1")

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("query, culprit", [
        ("SELECT -s FROM c", "unary -"),
        ("SELECT ROUND(s) FROM c", "ROUND"),
        ("SELECT SUBSTR(s, 'a') FROM c", "SUBSTR"),
        ("SELECT POWER(v, 'x') FROM c", "POWER"),
        ("SELECT LAG(v, 'a') OVER (ORDER BY v) FROM c", "LAG"),
        ("SELECT k, SUM(s) FROM c GROUP BY k", "SUM"),
    ])
    def test_bad_argument_is_an_execution_error(self, columnar, query,
                                                culprit):
        # Regression: TypeError / ValueError escaped from unary minus,
        # built-in scalars, window offsets and aggregates.
        db = Database(columnar=columnar)
        db.register("c", Table.from_columns(
            ["k", "v", "s"],
            [[i % 3 for i in range(9)], [float(i) for i in range(9)],
             [f"s{i}" for i in range(9)]]))
        with pytest.raises(ExecutionError, match=culprit):
            db.sql(query)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_percentile_over_empty_relation_is_null(self, columnar):
        # Regression: the fraction was evaluated against the first row of
        # an empty group and a bare IndexError escaped.
        db = Database(columnar=columnar)
        db.register("e", Table.from_columns(
            ["k", "v"], [[0.5, 0.25], [1.0, 2.0]]))
        for fraction in ("k", "0.5"):
            assert db.sql(f"SELECT PERCENTILE(v, {fraction}) AS p FROM e "
                          "WHERE v > 9").rows == [(None,)]
        assert db.sql("SELECT k, PERCENTILE(v, k) AS p FROM e WHERE v > 9 "
                      "GROUP BY k").rows == []

    @pytest.mark.parametrize("columnar", [True, False])
    def test_percentile_null_fraction_names_the_fraction(self, columnar):
        db = Database(columnar=columnar)
        db.register("e", Table.from_columns(["v"], [[1.0, 2.0]]))
        with pytest.raises(ExecutionError,
                           match=r"PERCENTILE fraction must be a number "
                                 r"in \[0, 1\], got None"):
            db.sql("SELECT PERCENTILE(v, NULL) FROM e")

    def test_select_distinct_on_map_cells(self):
        db = Database()
        db.register("m", Table(["tag"], [
            ({"a": 1},), ({"a": 1},), ({"b": 2},)]))
        assert len(db.sql("SELECT DISTINCT tag FROM m")) == 2

    def test_union_applies_offset(self, edge_db):
        # Regression: UNION used to drop OFFSET on the merged result.
        result = edge_db.sql(
            "SELECT k FROM t UNION ALL SELECT k FROM t "
            "ORDER BY k LIMIT 3 OFFSET 2")
        assert result.column("k") == ["a", "a", "b"]

    def test_union_offset_without_limit(self, edge_db):
        result = edge_db.sql(
            "SELECT k FROM t UNION SELECT k FROM t ORDER BY k OFFSET 1")
        assert result.column("k") == ["b", "c"]


class TestOrderByNan:
    def test_nan_sorts_after_numbers_transitively(self):
        # Regression: NaN keys made _SortKey non-transitive, so output
        # depended on comparison order ([5.0, nan, 1.0] could keep 5.0
        # before 1.0).  NaN now ranks in its own bucket above numbers.
        db = Database()
        db.register("f", Table(["x"], [
            (5.0,), (float("nan"),), (1.0,), (3.0,), (float("nan"),)]))
        got = db.sql("SELECT x FROM f ORDER BY x").column("x")
        assert got[:3] == [1.0, 3.0, 5.0]
        assert all(v != v for v in got[3:])

    def test_nan_sorts_before_numbers_descending(self):
        db = Database()
        db.register("f", Table(["x"], [
            (2.0,), (float("nan"),), (7.0,)]))
        got = db.sql("SELECT x FROM f ORDER BY x DESC").column("x")
        assert got[0] != got[0]          # NaN first under DESC
        assert got[1:] == [7.0, 2.0]


class TestWindowOrdering:
    def test_window_desc_order(self):
        # Regression guard for the single-sort _window_column rewrite:
        # DESC inside OVER(...) must order the frame, not the output.
        db = Database()
        db.register("w", Table(["g", "ts", "v"], [
            ("a", 1, 10.0), ("a", 2, 20.0), ("b", 1, 5.0),
            ("a", 3, 30.0), ("b", 2, 15.0)]))
        result = db.sql(
            "SELECT g, ts, ROW_NUMBER() OVER "
            "(PARTITION BY g ORDER BY ts DESC) AS rn FROM w")
        by_key = {(g, ts): rn for g, ts, rn in result.rows}
        assert by_key == {("a", 3): 1, ("a", 2): 2, ("a", 1): 3,
                          ("b", 2): 1, ("b", 1): 2}
        # Output row order is untouched by the frame sort.
        assert [(g, ts) for g, ts, _ in result.rows] == [
            ("a", 1), ("a", 2), ("b", 1), ("a", 3), ("b", 2)]

    def test_table_case_insensitive_lookup(self, edge_db):
        assert len(edge_db.sql("SELECT * FROM T")) == 4

    def test_drop_table(self, edge_db):
        edge_db.drop("t")
        with pytest.raises(SchemaError):
            edge_db.sql("SELECT * FROM t")

    def test_provider_materialised_once(self):
        db = Database()
        calls = []

        def provider():
            calls.append(1)
            return Table(["x"], [(1,)])

        db.register_provider("lazy", provider)
        db.sql("SELECT * FROM lazy")
        db.sql("SELECT * FROM lazy")
        assert len(calls) == 1

    def test_register_overwrites_provider(self):
        db = Database()
        db.register_provider("x", lambda: Table(["a"], [(1,)]))
        db.register("x", Table(["a"], [(2,)]))
        assert db.sql("SELECT a FROM x").rows == [(2,)]

    def test_having_with_arithmetic(self, edge_db):
        result = edge_db.sql(
            "SELECT k, SUM(v) s FROM t WHERE v IS NOT NULL GROUP BY k "
            "HAVING SUM(v) * 2 > 5 ORDER BY k")
        assert result.column("k") == ["a", "c"]

    def test_order_by_expression_on_source_columns(self, edge_db):
        result = edge_db.sql(
            "SELECT k FROM t WHERE v IS NOT NULL ORDER BY v * -1")
        assert result.column("k") == ["a", "c", "a"]

    def test_union_of_selects_with_exprs(self, edge_db):
        result = edge_db.sql(
            "SELECT MAX(v) FROM t UNION ALL SELECT MIN(v) FROM t")
        assert sorted(r[0] for r in result.rows) == [1, 4]
