"""Database providers: a table is built once per version, and every scan
runs the provider's scan (nothing below the server caches scans)."""

import sys
import threading
import time

import numpy as np

from repro.sql import Database
from repro.sql.scan import ScanPredicate
from repro.sql.table import Table
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


def test_scan_results_track_store_version():
    db = Database()
    store = make_store(n_series=1)
    register_store(db, store)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    rows_before = len(table)
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 42.0)
    table, _ = db.scan_table("tsdb", pred(0, 10_000))
    assert len(table) == rows_before + 1


def test_scans_rerun_and_the_table_builds_once_per_version():
    store = make_store()
    calls = {"table": 0, "stats": 0, "scan": 0}

    def counted(kind, fn):
        def run(*args):
            calls[kind] += 1
            return fn(store, *args)
        return run

    db = Database()
    db.register_scannable_provider(
        "tsdb", provider=counted("table", tsdb_table),
        version_fn=lambda: store.version,
        scan_fn=counted("scan", scan_store),
        stats_fn=counted("stats", store_stats))
    table = db.table("tsdb")
    first, _ = db.scan_table("tsdb", pred(0, 10))
    again, _ = db.scan_table("tsdb", pred(0, 10))
    # A repeated scan calls the provider again; it is not cached.
    assert calls["scan"] == 2
    assert again.rows == first.rows
    for i in range(20):
        db.scan_table("tsdb", pred(i, i + 1))
    assert db.table("tsdb") is table
    # Only a version bump rebuilds the table, once; the legacy stats_fn
    # is accepted but nothing ever calls it.
    db.explain("SELECT COUNT(*) FROM tsdb WHERE timestamp < 5")
    store.insert(SeriesId.make("metric_0", {"host": "h0"}), 10_000, 1.0)
    assert db.table("tsdb") is not table
    assert calls["table"] == 2 and calls["stats"] == 0
    assert db.stats_for("tsdb") is None


def test_racing_readers_never_get_a_table_older_than_they_observed():
    """Readers race a version counter through one Database; each gets a
    table built at the version it observed or later."""
    state = {"version": 0}
    db = Database()
    db.register_versioned_provider(
        "t", lambda: Table(["version"], [(state["version"],)]),
        lambda: state["version"])
    reads, stale = [], []
    go, stop = threading.Event(), threading.Event()

    def read():
        go.wait(timeout=30)
        while not stop.is_set():
            observed = state["version"]
            built = db.table("t").rows[0][0]
            reads.append(built)
            if built < observed:
                stale.append((observed, built))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(8)]
    try:
        for reader in readers:
            reader.start()
        go.set()
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            state["version"] += 1
    finally:
        go.set()
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not any(reader.is_alive() for reader in readers)
    assert not stale
    assert len(set(reads)) > 1
