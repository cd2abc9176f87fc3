"""The store under concurrent writers: snapshots, thread stress, WAL.

The contract under test: writers touching different series interleave
freely under the store's one lock, yet any snapshot is a frozen view
whose bytes never change — and a snapshot taken at version ``v`` is
bitwise identical to a quiesced store that stopped at
``v``-equivalent contents.  A store fed sequentially is the reference,
and a write the store rejects leaves no trace.
"""

import threading

import numpy as np
import pytest

from repro.sql import Database
from repro.tsdb import SeriesId, TimeSeriesStore, register_store
from repro.tsdb.model import SeriesFormatError


def _series(i: int) -> SeriesId:
    return SeriesId.make("cpu.util", {"host": f"host-{i:02d}",
                                      "dc": "east" if i % 2 else "west"})


def _workload(n_series=12, n_batches=6, batch=200, seed=7):
    """Per-series batch lists, identical across runs."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n_series):
        batches = []
        t0 = 0
        for _ in range(n_batches):
            ts = t0 + np.sort(rng.integers(0, 50, size=batch)).astype(np.int64)
            t0 = int(ts[-1]) + 1
            vals = rng.normal(size=batch)
            vals[rng.random(batch) < 0.05] = np.nan
            batches.append((ts, vals))
        out[_series(i)] = batches
    return out


def _sequential_store(workload) -> TimeSeriesStore:
    store = TimeSeriesStore()
    for series, batches in workload.items():
        for ts, vals in batches:
            store.insert_array(series, ts, vals)
    return store


def _interleaved_store(workload) -> TimeSeriesStore:
    """The same batches, round-robin across series: another write order."""
    store = TimeSeriesStore()
    for batches in zip(*workload.values()):
        for series, (ts, vals) in zip(workload, batches):
            store.insert_array(series, ts, vals)
    return store


def _assert_same_contents(a, b):
    assert a.series_ids() == b.series_ids()
    for series in a.series_ids():
        a_ts, a_vals = a.arrays(series)
        b_ts, b_vals = b.arrays(series)
        assert np.array_equal(a_ts, b_ts)
        assert np.array_equal(a_vals.view(np.int64), b_vals.view(np.int64))
        assert a.chunk_stats(series) == b.chunk_stats(series)


class TestWriteOrderParity:
    """Single-threaded use: a store fed in another series order answers
    every read identically to the sequential reference."""

    def test_reads_match_sequential_store(self):
        workload = _workload()
        plain = _sequential_store(workload)
        interleaved = _interleaved_store(workload)
        _assert_same_contents(interleaved, plain)
        assert interleaved.num_points() == plain.num_points()
        assert interleaved.metric_names() == plain.metric_names()
        assert interleaved.tag_keys() == plain.tag_keys()
        assert interleaved.tag_values("dc") == plain.tag_values("dc")
        assert interleaved.time_range() == plain.time_range()
        assert interleaved.value_range() == plain.value_range()
        assert interleaved.find(name="cpu.util") == plain.find(name="cpu.util")
        assert (interleaved.find_exact(tags={"dc": "east"})
                == plain.find_exact(tags={"dc": "east"}))
        s = _series(0)
        got = interleaved.arrays(s, start=10, end=40)
        want = plain.arrays(s, start=10, end=40)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)

    def test_version_counts_mutations(self):
        store = TimeSeriesStore()
        assert store.version == 0
        store.insert(_series(0), 1, 1.0)
        store.insert_array(_series(1), [2, 3], [1.0, 2.0])
        assert store.version == 2
        store.apply(_series(1), lambda ts, vals: vals + 1.0)
        assert store.version == 3

    def test_apply_matches_plain_store(self):
        applied = TimeSeriesStore()
        plain = TimeSeriesStore()
        applied.insert_array(_series(0), [1, 2, 3], [1.0, 2.0, 3.0])
        applied.apply(_series(0), lambda ts, vals: vals * 2.0)
        plain.insert_array(_series(0), [1, 2, 3], [2.0, 4.0, 6.0])
        _assert_same_contents(applied, plain)


class TestSnapshots:
    def test_snapshot_cached_per_version(self):
        store = TimeSeriesStore()
        store.insert_array(_series(0), [1, 2], [1.0, 2.0])
        snap = store.snapshot()
        assert store.snapshot() is snap          # no writer: same object
        store.insert_array(_series(1), [1], [9.0])
        snap2 = store.snapshot()
        assert snap2 is not snap
        assert snap2.version == store.version

    def test_snapshot_is_bitwise_stable_while_source_mutates(self):
        store = TimeSeriesStore()
        store.insert_array(_series(0), [1, 2], [1.0, 2.0])
        snap = store.snapshot()
        before_ts, before_vals = snap.arrays(_series(0))
        frozen = (before_ts.copy(), before_vals.copy())
        store.insert_array(_series(0), [3, 4], [5.0, 6.0])
        store.apply(_series(0), lambda ts, vals: vals * 100.0)
        after_ts, after_vals = snap.arrays(_series(0))
        assert np.array_equal(after_ts, frozen[0])
        assert np.array_equal(after_vals.view(np.int64),
                              frozen[1].view(np.int64))
        assert len(snap) == 1 and _series(1) not in snap

    def test_cached_read_takes_no_lock(self):
        """At an unchanged version a read returns the cached view at
        once, even while a writer holds the store's lock."""
        store = TimeSeriesStore()
        store.insert_array(_series(0), [1, 2], [1.0, 2.0])
        view = store.read_view()
        got = []

        def reader():
            got.append((store.read_view(), store.arrays(_series(0))))

        with store._lock:
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "read blocked on the lock"
        assert got[0][0] is view
        assert got[0][1][0].tolist() == [1, 2]


REJECTED_WRITES = {
    "first-unequal": lambda s: s.insert_array(_series(1), [1, 2], [1.0]),
    "first-unsorted": lambda s: s.insert_array(_series(1), [2, 1],
                                               [1.0, 2.0]),
    "later-unequal": lambda s: s.insert_array(_series(0), [4, 5], [1.0]),
    "later-before-last": lambda s: s.insert_array(_series(0), [2, 5],
                                                  [1.0, 2.0]),
    "later-unsorted": lambda s: s.insert_array(_series(0), [6, 5],
                                               [1.0, 2.0]),
    "point-out-of-order": lambda s: s.insert(_series(0), 2, 9.0),
    "apply-changes-length": lambda s: s.apply(_series(0),
                                              lambda ts, vals: vals[:-1]),
}


#: Valid writes whose WAL append raises (a full disk, say).
FAILED_APPENDS = {
    "first-batch-log-fails": lambda s: s.insert_array(_series(1), [1, 2],
                                                      [1.0, 2.0]),
    "later-batch-log-fails": lambda s: s.insert_array(_series(0), [4, 5],
                                                      [4.0, 5.0]),
    "first-point-log-fails": lambda s: s.insert(_series(1), 1, 1.0),
    "later-point-log-fails": lambda s: s.insert(_series(0), 4, 4.0),
}

REJECTIONS = {
    **{name: (write, SeriesFormatError, False)
       for name, write in REJECTED_WRITES.items()},
    **{name: (write, OSError, True)
       for name, write in FAILED_APPENDS.items()},
}


def _failing_append(*_):
    raise OSError("no space left on device")


def _contents(store):
    return {series: tuple(column.tolist() for column in store.arrays(series))
            for series in store.series_ids()}


@pytest.mark.parametrize("write,error,log_fails", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_a_rejected_write_leaves_no_trace(write, error, log_fails, tmp_path,
                                          monkeypatch):
    """The version, the series, the cached view, the live column and
    the WAL stay as they were, whether validation or the WAL append
    failed; a rejected first write registers no column, so the next
    landed write adds only its own series, and reopening the WAL
    recovers exactly the acknowledged writes."""
    path = tmp_path / "store.wal"
    with TimeSeriesStore.open(path) as store:
        store.insert_array(_series(0), [1, 2, 3], [1.0, 2.0, 3.0])
        view = store.read_view()
        version, ids = store.version, store.series_ids()
        records = store.wal.records_written
        if log_fails:
            monkeypatch.setattr(store.wal, "append_array", _failing_append)
        with pytest.raises(error):
            write(store)
        monkeypatch.undo()
        assert store.version == version
        assert store.series_ids() == ids
        assert store.read_view() is view
        assert {s: len(c) for s, c in store._live.items()} == {_series(0): 3}
        assert store.wal.records_written == records
        store.insert(_series(2), 1, 1.0)
        assert store.series_ids() == [_series(0), _series(2)]
        assert store.find_exact(name="cpu.util") == store.series_ids()
        assert store.tag_values("host") == ["host-00", "host-02"]
        assert store.wal.records_written == records + 1
        acknowledged = _contents(store)
        assert acknowledged == {_series(0): ([1, 2, 3], [1.0, 2.0, 3.0]),
                                _series(2): ([1], [1.0])}
    with TimeSeriesStore.open(path) as reopened:
        assert _contents(reopened) == acknowledged


class TestThreadedStress:
    N_WRITERS = 4

    def _run_threaded(self, workload, readers=0):
        """Ingest with N writer threads (each owns a series subset so
        per-series order is preserved); optional reader threads take
        snapshots and record (snapshot, version, result) mid-ingest."""
        store = TimeSeriesStore()
        series_list = list(workload)
        errors = []
        observations = []
        done = threading.Event()

        def writer(k):
            try:
                for series in series_list[k::self.N_WRITERS]:
                    for ts, vals in workload[series]:
                        store.insert_array(series, ts, vals)
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    snap = store.snapshot()
                    observations.append(
                        (snap, snap.version, snap.num_points(),
                         {s: tuple(map(np.ndarray.tobytes,
                                       snap.arrays(s)))
                          for s in snap.series_ids()}))
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(self.N_WRITERS)]
        threads += [threading.Thread(target=reader) for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads[:self.N_WRITERS]:
            t.join()
        done.set()
        for t in threads[self.N_WRITERS:]:
            t.join()
        assert not errors, errors
        return store, observations

    def test_concurrent_ingest_equals_sequential(self):
        workload = _workload(n_series=16, n_batches=8)
        store, _ = self._run_threaded(workload)
        _assert_same_contents(store, _sequential_store(workload))
        assert store.version == 16 * 8

    def test_mid_ingest_snapshots_stay_bitwise_stable(self):
        """Every snapshot observed mid-ingest must, after quiesce, still
        answer byte-for-byte what it answered when captured."""
        workload = _workload(n_series=12, n_batches=6)
        store, observations = self._run_threaded(workload, readers=2)
        assert observations, "readers captured no snapshots"
        for snap, version, points, columns in observations:
            assert snap.version == version
            assert snap.num_points() == points
            for series, (ts_bytes, val_bytes) in columns.items():
                ts, vals = snap.arrays(series)
                assert ts.tobytes() == ts_bytes
                assert vals.tobytes() == val_bytes
        # Snapshots at the final version equal the quiesced store.
        final = store.snapshot()
        for snap, version, _, _ in observations:
            if version == store.version:
                _assert_same_contents(snap, final)

    def test_equal_versions_imply_identical_bytes(self):
        """Snapshots captured at the same version — possibly by
        different reader threads — must be bitwise identical."""
        workload = _workload(n_series=10, n_batches=5)
        _, observations = self._run_threaded(workload, readers=3)
        by_version = {}
        for _, version, points, columns in observations:
            if version in by_version:
                prev_points, prev_columns = by_version[version]
                assert points == prev_points
                assert columns == prev_columns
            else:
                by_version[version] = (points, columns)


class TestSqlOverConcurrentStore:
    QUERY = ("SELECT metric_name, COUNT(*) AS n, MIN(value) AS lo "
             "FROM tsdb WHERE timestamp BETWEEN 20 AND 180 "
             "AND tag['dc'] = 'east' GROUP BY metric_name")

    def test_sql_results_match_plain_store(self):
        workload = _workload()
        plain = _sequential_store(workload)
        interleaved = _interleaved_store(workload)
        db_plain, db_interleaved = Database(), Database()
        register_store(db_plain, plain)
        register_store(db_interleaved, interleaved)
        assert (db_interleaved.sql(self.QUERY).rows
                == db_plain.sql(self.QUERY).rows)

    def test_sql_during_ingest_matches_quiesced_run_at_same_version(self):
        """The acceptance clause: a query answered mid-ingest from a
        version-``v`` snapshot is identical to re-running it against
        that same snapshot after every writer has quiesced — the
        snapshot *is* the store at ``v``, and its answers never move."""
        workload = _workload(n_series=12, n_batches=6)
        store = TimeSeriesStore()
        live_db = Database()
        register_store(live_db, store)
        captured = []
        errors = []
        done = threading.Event()

        def writer(k):
            try:
                series_list = list(workload)
                for series in series_list[k::2]:
                    for ts, vals in workload[series]:
                        store.insert_array(series, ts, vals)
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    snap = store.snapshot()
                    snap_db = Database()
                    register_store(snap_db, snap)
                    captured.append((snap, snap.version,
                                     snap_db.sql(self.QUERY).rows))
                    # The live database must also answer mid-ingest
                    # (its scan runs over one consistent snapshot).
                    live_db.sql(self.QUERY)
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads[:2]:
            t.join()
        done.set()
        threads[2].join()
        assert not errors, errors
        assert captured, "reader never queried mid-ingest"
        for snap, version, rows in captured:
            assert snap.version == version   # snapshots never move
            quiesced = Database()
            register_store(quiesced, snap)
            assert quiesced.sql(self.QUERY).rows == rows
        # And the final version's mid-ingest answer equals the fully
        # quiesced live answer.
        final_rows = live_db.sql(self.QUERY).rows
        for snap, version, rows in captured:
            if version == store.version:
                assert rows == final_rows


class TestWalIntegration:
    def test_open_replays_and_continues(self, tmp_path):
        path = tmp_path / "store.wal"
        workload = _workload(n_series=6, n_batches=3)
        with TimeSeriesStore.open(path) as store:
            for series, batches in workload.items():
                for ts, vals in batches:
                    store.insert_array(series, ts, vals)
        with TimeSeriesStore.open(path) as reopened:
            _assert_same_contents(reopened, _sequential_store(workload))
            assert reopened.wal.records_written == 0  # replay, not re-log
            reopened.insert_array(
                SeriesId.make("extra"), [1, 2], [3.0, 4.0])
        with TimeSeriesStore.open(path) as again:
            assert SeriesId.make("extra") in again
            assert again.num_points() == (
                _sequential_store(workload).num_points() + 2)

    def test_torn_tail_recovers_prefix(self, tmp_path):
        path = tmp_path / "store.wal"
        with TimeSeriesStore.open(path) as store:
            store.insert_array(_series(0), [1, 2], [1.0, 2.0])
            store.insert_array(_series(1), [1, 2], [3.0, 4.0])
        data = path.read_bytes()
        path.write_bytes(data[:-7])          # tear the last record
        with TimeSeriesStore.open(path) as recovered:
            assert _series(0) in recovered
            assert _series(1) not in recovered

    def test_concurrent_writers_produce_replayable_log(self, tmp_path):
        path = tmp_path / "store.wal"
        workload = _workload(n_series=8, n_batches=4)
        store = TimeSeriesStore.open(path)
        series_list = list(workload)
        threads = [
            threading.Thread(target=lambda k=k: [
                store.insert_array(s, ts, vals)
                for s in series_list[k::4]
                for ts, vals in workload[s]])
            for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        with TimeSeriesStore.open(path) as replayed:
            _assert_same_contents(replayed, _sequential_store(workload))
