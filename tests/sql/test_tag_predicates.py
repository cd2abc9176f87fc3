"""Tag-map predicates over a tsdb store: results, pruning, EXPLAIN.

``tag['key']`` comparisons are the commonest WHERE in the paper's
queries.  Each one here runs through ``Database()`` (columnar) and
``Database(columnar=False)`` (the row reference) over the same store;
both must return exactly the points of the series a Python filter over
the tag sets keeps.  EXPLAIN must report the rows the Filter actually
kept and how many series the scan read: an equality on a tag key is
pushed into the scan and prunes series through the inverted index;
any other tag predicate reads the whole table and filters rows.
"""

import numpy as np
import pytest

from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore

# 4 series, 10 points each; 'dc' on 3 of 4 series, 'rack' on 1.
SPECS = [
    {"host": "h1", "dc": "east"},
    {"host": "h2", "dc": "west"},
    {"host": "h3", "dc": "east", "rack": "r9"},
    {"host": "h4"},
]
POINTS = 10

# (predicate, which tag sets it keeps, series the pruned scan reads;
#  None when nothing is pushed down and the whole table is read)
CASES = [
    ("tag['dc'] = 'east'", lambda t: t.get("dc") == "east", 2),
    ("'east' = tag['dc']", lambda t: t.get("dc") == "east", 2),
    ("tag['dc'] <> 'east'", lambda t: t.get("dc") == "west", None),
    ("tag['rack'] IS NULL", lambda t: "rack" not in t, None),
    ("tag['rack'] IS NOT NULL", lambda t: "rack" in t, None),
    ("tag['host'] IN ('h1', 'h2')", lambda t: t["host"] in ("h1", "h2"),
     None),
    ("tag['ghost'] = 'x'", lambda t: False, 0),
    ("tag['dc'] = 'east' AND tag['host'] = 'h1'",
     lambda t: t.get("dc") == "east" and t["host"] == "h1", 1),
]
IDS = ["eq", "eq-flipped", "neq", "is-null", "is-not-null", "in-list",
       "unknown-key", "conjunction"]


def _store() -> TimeSeriesStore:
    store = TimeSeriesStore()
    for i, tags in enumerate(SPECS):
        store.insert_array(SeriesId.make("cpu.util", tags),
                           np.arange(POINTS, dtype=np.int64),
                           np.full(POINTS, float(i)))
    return store


def _databases() -> tuple[Database, Database]:
    store = _store()
    fast, slow = Database(), Database(columnar=False)
    for db in (fast, slow):
        register_store(db, store)
    return fast, slow


def _stage(plan: str, name: str) -> str:
    return next(line.strip() for line in plan.splitlines()
                if line.strip().startswith(name))


@pytest.mark.parametrize("predicate, keeps, _series", CASES, ids=IDS)
def test_both_tiers_return_the_kept_series(predicate, keeps, _series):
    expected = sorted((t, float(i)) for i, tags in enumerate(SPECS)
                      if keeps(tags) for t in range(POINTS))
    query = f"SELECT timestamp, value FROM tsdb WHERE {predicate}"
    for db in _databases():
        assert sorted(db.sql(query).rows) == expected, (db, predicate)


@pytest.mark.parametrize("predicate, keeps, series", CASES, ids=IDS)
def test_explain_reports_kept_rows_and_series_read(predicate, keeps,
                                                   series):
    fast, _ = _databases()
    plan = fast.explain(f"SELECT value FROM tsdb WHERE {predicate}")
    kept = POINTS * sum(1 for tags in SPECS if keeps(tags))
    assert f"actual={kept} rows" in _stage(plan, "Filter"), plan
    scan = _stage(plan, "Scan")
    if series is None:
        assert scan == f"Scan(tsdb) (actual={POINTS * len(SPECS)} rows)"
    else:
        assert f"actual={POINTS * series} rows" in scan, plan
        assert f"series={series}/{len(SPECS)}" in scan, plan
    assert "est=" not in plan


class TestGroupByTag:
    def test_one_group_per_tag_value(self):
        query = ("SELECT tag['host'] AS host, COUNT(*) AS n FROM tsdb "
                 "GROUP BY tag['host']")
        for db in _databases():
            assert sorted(db.sql(query).rows) == [
                (tags["host"], POINTS) for tags in SPECS]
        plan = _databases()[0].explain(query)
        assert "actual=4 rows" in _stage(plan, "Aggregate"), plan

    def test_unknown_key_groups_everything_under_null(self):
        query = ("SELECT tag['ghost'] AS g, COUNT(*) AS n FROM tsdb "
                 "GROUP BY tag['ghost']")
        for db in _databases():
            assert db.sql(query).rows == [(None, POINTS * len(SPECS))]
        plan = _databases()[0].explain(query)
        assert "actual=1 rows" in _stage(plan, "Aggregate"), plan
