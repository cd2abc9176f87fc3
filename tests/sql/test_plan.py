"""Unit tests for EXPLAIN plan rendering."""

import pytest

from repro.sql import Database, Table


@pytest.fixture
def db2() -> Database:
    db = Database()
    db.register("l", Table(["k", "v"], [("a", 1)]))
    db.register("r", Table(["k", "w"], [("a", 2)]))
    return db


class TestExplain:
    def test_simple_scan(self, db2):
        plan = db2.explain("SELECT v FROM l WHERE v > 0")
        assert "Project(v)" in plan
        assert "Filter((v > 0))" in plan
        assert "Scan(l)" in plan

    def test_join_plan_shows_pushed_filters(self, db2):
        plan = db2.explain(
            "SELECT l.v FROM l JOIN r ON l.k = r.k WHERE l.v > 1")
        assert "InnerJoin" in plan
        # The optimizer pushed the filter beneath the join.
        assert "Subquery" in plan
        assert "Filter((l.v > 1))" in plan

    def test_unoptimised_database_keeps_filter_on_top(self):
        db = Database(optimize_queries=False)
        db.register("l", Table(["k", "v"], [("a", 1)]))
        db.register("r", Table(["k", "w"], [("a", 2)]))
        plan = db.explain(
            "SELECT l.v FROM l JOIN r ON l.k = r.k WHERE l.v > 1")
        assert "Subquery" not in plan

    def test_aggregate_plan(self, db2):
        plan = db2.explain(
            "SELECT k, COUNT(*) c FROM l GROUP BY k HAVING COUNT(*) > 1 "
            "ORDER BY k LIMIT 5")
        assert "Aggregate(groupBy=k)" in plan
        assert "Having" in plan
        assert "Sort(k)" in plan
        assert "limit=5" in plan

    def test_union_plan(self, db2):
        plan = db2.explain("SELECT k FROM l UNION ALL SELECT k FROM r")
        assert "UnionAll" in plan
        assert plan.count("Scan") == 2

    def test_no_from(self, db2):
        plan = db2.explain("SELECT 1 + 1 AS x")
        assert "OneRow" in plan

    def test_indentation_reflects_depth(self, db2):
        plan = db2.explain("SELECT l.v FROM l JOIN r ON l.k = r.k")
        lines = plan.splitlines()
        project_indent = len(lines[0]) - len(lines[0].lstrip())
        join_line = next(l for l in lines if "InnerJoin" in l)
        join_indent = len(join_line) - len(join_line.lstrip())
        assert join_indent > project_indent

    def test_every_stage_records_what_ran_and_nothing_is_estimated(self, db2):
        plan = db2.explain(
            "SELECT l.k, COUNT(*) AS n FROM l "
            "JOIN (SELECT k FROM r WHERE w > 0) s ON l.k = s.k "
            "GROUP BY l.k ORDER BY n")
        assert "est=" not in plan
        assert all("actual=" in line for line in plan.splitlines()), plan
        assert "Aggregate(groupBy=l.k) (actual=1 rows, engine=row)" in plan
