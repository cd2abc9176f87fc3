"""Database table/scan caches: per-provider bounds + version eviction."""

import numpy as np

from repro.sql import Database
from repro.sql.catalog import _SCAN_CACHE_SIZE
from repro.sql.scan import ScanPredicate
from repro.tsdb.adapter import (
    register_store,
    scan_store,
    store_stats,
    tsdb_table,
)
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore


def make_store(n_series=4, n=128):
    store = TimeSeriesStore()
    ts = np.arange(n, dtype=np.int64)
    for i in range(n_series):
        store.insert_array(SeriesId.make(f"metric_{i}", {"host": f"h{i}"}),
                           ts, np.linspace(0.0, float(i + 1), n))
    return store


def pred(lo, hi):
    return ScanPredicate(ranges=(("timestamp", lo, hi),))


def test_scan_cache_hit_on_repeat_predicate():
    db = Database()
    register_store(db, make_store())
    first = db.scan_table("tsdb", pred(0, 10))
    second = db.scan_table("tsdb", pred(0, 10))
    assert first is not None
    assert second[0] is first[0]
    info = db.cache_info()
    assert info["scan_hits"] == 1 and info["scan_misses"] == 1


def test_scan_cache_bounded_per_provider():
    db = Database()
    register_store(db, make_store(), name="hot")
    register_store(db, make_store(), name="cold")
    db.scan_table("hot", pred(0, 1))
    # A predicate storm on "cold" overflows only its own LRU...
    for i in range(3 * _SCAN_CACHE_SIZE):
        db.scan_table("cold", pred(i, i + 1))
    info = db.cache_info()
    assert info["scan_entries"]["cold"] == _SCAN_CACHE_SIZE
    # ...while "hot"'s entry survives untouched and still hits.
    assert info["scan_entries"]["hot"] == 1
    before = info["scan_hits"]
    db.scan_table("hot", pred(0, 1))
    assert db.cache_info()["scan_hits"] == before + 1


def test_superseded_version_entries_evicted_on_next_scan():
    db = Database()
    store = make_store()
    register_store(db, store)
    for i in range(4):
        db.scan_table("tsdb", pred(i, i + 10))
    assert db.cache_info()["scan_entries"]["tsdb"] == 4
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 1.0)
    db.scan_table("tsdb", pred(0, 10))
    # The version moved: every old-version entry is gone, only the new
    # scan remains — no squatting until LRU pressure.
    assert db.cache_info()["scan_entries"]["tsdb"] == 1


def test_scan_results_track_store_version():
    db = Database()
    store = make_store(n_series=1)
    register_store(db, store)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    rows_before = len(table)
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 42.0)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    assert len(table) == rows_before + 1


def test_drop_clears_provider_caches():
    db = Database()
    register_store(db, make_store())
    db.scan_table("tsdb", pred(0, 10))
    db.sql("SELECT COUNT(*) FROM tsdb")
    db.drop("tsdb")
    assert db.cache_info()["scan_entries"] == {}


def test_scan_churn_never_evicts_or_rebuilds_table():
    store = make_store()
    calls = {"table": 0, "stats": 0}

    def counted(kind, fn):
        def run():
            calls[kind] += 1
            return fn(store)
        return run

    db = Database()
    db.register_scannable_provider(
        "tsdb", provider=counted("table", tsdb_table),
        version_fn=lambda: store.version,
        scan_fn=lambda predicate: scan_store(store, predicate),
        stats_fn=counted("stats", store_stats))
    table = db.table("tsdb")
    for i in range(20):
        db.scan_table("tsdb", pred(i, i + 1))
    assert db.cache_info()["scan_entries"]["tsdb"] == _SCAN_CACHE_SIZE
    assert db.table("tsdb") is table
    # Only a version bump rebuilds the table, once; the legacy stats_fn
    # is accepted but nothing ever calls it.
    db.explain("SELECT COUNT(*) FROM tsdb WHERE timestamp < 5")
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 1.0)
    assert db.table("tsdb") is not table
    assert calls == {"table": 2, "stats": 0}
    assert db.stats_for("tsdb") is None

