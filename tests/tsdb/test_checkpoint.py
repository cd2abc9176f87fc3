"""Checkpointing: snapshot + WAL truncate, and snapshot-based recovery."""

import os
import threading

import numpy as np
import pytest

from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.wal import MAGIC, WriteAheadLog


def fill(store, n_series=6, n=64, offset=0):
    for i in range(n_series):
        ts = np.arange(offset, offset + n, dtype=np.int64)
        store.insert_array(SeriesId.make(f"metric_{i}", {"host": f"h{i}"}),
                           ts, np.sin(ts / 7.0) + i)
    return store


def contents(store):
    """Bitwise-comparable dump: series -> (timestamp bytes, value bytes)."""
    return {str(series): (ts.tobytes(), vals.tobytes())
            for series, ts, vals in store.snapshot().iter_arrays()}


def test_checkpoint_writes_snapshot_and_truncates_wal(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(TimeSeriesStore.open(wal_path))
    assert wal_path.stat().st_size > len(MAGIC)
    n_bytes = store.checkpoint(snap_path)
    assert n_bytes > 0
    assert snap_path.stat().st_size == n_bytes
    assert wal_path.stat().st_size == len(MAGIC)
    assert not snap_path.with_name(snap_path.name + ".tmp").exists()
    store.close()


def test_recovery_from_snapshot_plus_wal_is_identical(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(TimeSeriesStore.open(wal_path))
    store.checkpoint(snap_path)
    # Post-checkpoint appends land only in the (now short) WAL.
    fill(store, n_series=2, offset=64)
    expected = contents(store)
    store.close()

    recovered = TimeSeriesStore.open(wal_path,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_recovery_without_snapshot_file_is_wal_only(tmp_path):
    wal_path = tmp_path / "store.wal"
    store = fill(TimeSeriesStore.open(wal_path))
    expected = contents(store)
    store.close()
    recovered = TimeSeriesStore.open(
        wal_path, snapshot=tmp_path / "never_written.chunk")
    assert contents(recovered) == expected
    recovered.close()


def test_checkpoint_without_wal_still_writes_snapshot(tmp_path):
    snap_path = tmp_path / "plain.chunk"
    store = fill(TimeSeriesStore())
    assert store.checkpoint(snap_path) > 0
    recovered = TimeSeriesStore.open(tmp_path / "empty.wal",
                                            snapshot=snap_path)
    assert contents(recovered) == contents(store)
    recovered.close()


def test_repeated_checkpoints_keep_snapshot_plus_wal_complete(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = TimeSeriesStore.open(wal_path)
    for round_no in range(3):
        fill(store, n_series=3, offset=round_no * 64)
        store.checkpoint(snap_path)
    fill(store, n_series=1, offset=3 * 64)
    expected = contents(store)
    store.close()
    recovered = TimeSeriesStore.open(wal_path,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_checkpoint_under_concurrent_writers(tmp_path):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(TimeSeriesStore.open(wal_path))
    stop = threading.Event()
    errors = []

    def writer(wid):
        series = SeriesId.make("live_ingest", {"host": f"w{wid}"})
        i = 0
        try:
            while not stop.is_set():
                ts = np.arange(i * 8, (i + 1) * 8, dtype=np.int64)
                store.insert_array(series, ts, np.full(8, float(i)))
                i += 1
        except Exception as exc:         # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(3):
            store.checkpoint(snap_path)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    expected = contents(store)
    store.close()
    recovered = TimeSeriesStore.open(wal_path,
                                            snapshot=snap_path)
    assert contents(recovered) == expected
    recovered.close()


def test_wal_truncate_resets_and_accepts_new_records(tmp_path):
    path = tmp_path / "log.wal"
    log = WriteAheadLog(path, fsync_every=1)
    ts = np.arange(4, dtype=np.int64)
    log.append_array(SeriesId.make("a"), ts, np.ones(4))
    log.truncate()
    assert path.stat().st_size == len(MAGIC)
    assert list(log.records()) == []
    log.append_array(SeriesId.make("b"), ts, np.zeros(4))
    records = list(log.records())
    assert len(records) == 1
    assert records[0][0] == SeriesId.make("b")
    log.close()


class _Crash(Exception):
    """Stands in for the process dying at an injected point."""


def _crash_on_replace(monkeypatch, call, after):
    """Make the ``call``-th ``os.replace`` die before or after renaming.

    A checkpoint renames twice: its snapshot over the target path, then
    (inside the WAL truncate) a fresh log over the old one.
    """
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == call and not after:
            raise _Crash
        real_replace(src, dst)
        if len(calls) == call and after:
            raise _Crash

    monkeypatch.setattr(os, "replace", replace)


CRASH_POINTS = {
    "after_tmp_write": (1, False),   # snapshot written, not yet renamed
    "after_rename": (1, True),       # snapshot in place, WAL untouched
    "after_truncate": (2, True),     # fresh WAL generation in place
}


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_checkpoint_crash_recovers_acknowledged_writes_once(
        tmp_path, monkeypatch, point):
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    store = fill(TimeSeriesStore.open(wal_path))
    store.checkpoint(snap_path)                   # an earlier, clean cut
    fill(store, n_series=3, offset=64)            # what the crash covers
    store.flush()                                 # acknowledged
    expected = contents(store)
    _crash_on_replace(monkeypatch, *CRASH_POINTS[point])
    with pytest.raises(_Crash):
        store.checkpoint(snap_path)
    monkeypatch.undo()
    recovered = TimeSeriesStore.open(wal_path,
                                     snapshot=snap_path)
    assert contents(recovered) == expected
    # Writing on after recovery and crashing again loses nothing either.
    fill(recovered, n_series=1, offset=128)
    expected = contents(recovered)
    recovered.flush()
    again = TimeSeriesStore.open(wal_path, snapshot=snap_path)
    assert contents(again) == expected
    again.close()


def test_crash_after_rename_never_duplicates_a_point(tmp_path, monkeypatch):
    """The log's first timestamp equals the snapshot's last: replaying
    it would append cleanly — and return the point twice."""
    wal_path = tmp_path / "store.wal"
    snap_path = tmp_path / "store.chunk"
    series = SeriesId.make("m", {"h": "a"})
    store = TimeSeriesStore.open(wal_path)
    store.insert(series, 5, 5.0)
    store.flush()
    _crash_on_replace(monkeypatch, *CRASH_POINTS["after_rename"])
    with pytest.raises(_Crash):
        store.checkpoint(snap_path)
    monkeypatch.undo()
    recovered = TimeSeriesStore.open(wal_path, snapshot=snap_path)
    ts, vals = recovered.arrays(series)
    assert ts.tolist() == [5] and vals.tolist() == [5.0]
    recovered.close()
