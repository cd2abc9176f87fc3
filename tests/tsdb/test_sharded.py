"""Sharding in the store: routing, snapshots, thread stress.

The contract under test: writers touching different series interleave
freely, yet any snapshot is a frozen view whose bytes never change —
and a snapshot taken at version ``v`` is bitwise identical to a
quiesced store that stopped at ``v``-equivalent contents.  A
single-shard store fed sequentially is the reference.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.sql import Database
from repro.tsdb import SeriesId, TimeSeriesStore, register_store
from repro.tsdb.model import SeriesFormatError
from repro.tsdb.storage import shard_index


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
    store = TimeSeriesStore(n_shards=1)
    for series, batches in workload.items():
        for ts, vals in batches:
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


class TestRouting:
    def test_routing_matches_documented_formula(self):
        store = TimeSeriesStore(n_shards=8)
        for i in range(40):
            series = _series(i)
            expected = zlib.crc32(str(series).encode("utf-8")) % 8
            assert store.shard_of(series) == expected
            assert shard_index(series, 8) == expected

    def test_routing_is_tag_order_independent(self):
        a = SeriesId.make("m", {"x": "1", "y": "2"})
        b = SeriesId.make("m", {"y": "2", "x": "1"})
        assert shard_index(a, 16) == shard_index(b, 16)

    def test_every_point_lands_on_its_shard(self):
        workload = _workload(n_series=16)
        store = TimeSeriesStore(n_shards=4)
        for series, batches in workload.items():
            for ts, vals in batches:
                store.insert_array(series, ts, vals)
        sizes = store.shard_sizes()
        assert sum(sizes) == store.num_points()
        for series in workload:
            idx = store.shard_of(series)
            assert series in store._shards[idx].columns

    def test_invalid_shard_count(self):
        with pytest.raises(SeriesFormatError):
            TimeSeriesStore(n_shards=0)


class TestDropInParity:
    """Single-threaded use: the default 8-shard store answers every
    read identically to a single-shard store fed the same batches."""

    def test_reads_match_sequential_store(self):
        workload = _workload()
        plain = _sequential_store(workload)
        sharded = TimeSeriesStore()
        for series, batches in workload.items():
            for ts, vals in batches:
                sharded.insert_array(series, ts, vals)
        _assert_same_contents(sharded, plain)
        assert sharded.num_points() == plain.num_points()
        assert sharded.metric_names() == plain.metric_names()
        assert sharded.tag_keys() == plain.tag_keys()
        assert sharded.tag_values("dc") == plain.tag_values("dc")
        assert sharded.time_range() == plain.time_range()
        assert sharded.value_range() == plain.value_range()
        assert sharded.find(name="cpu.util") == plain.find(name="cpu.util")
        assert (sharded.find_exact(tags={"dc": "east"})
                == plain.find_exact(tags={"dc": "east"}))
        s = _series(0)
        got = sharded.arrays(s, start=10, end=40)
        want = plain.arrays(s, start=10, end=40)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True)

    def test_version_counts_mutations(self):
        store = TimeSeriesStore(n_shards=2)
        assert store.version == 0
        store.insert(_series(0), 1, 1.0)
        store.insert_array(_series(1), [2, 3], [1.0, 2.0])
        assert store.version == 2
        store.apply(_series(1), lambda ts, vals: vals + 1.0)
        assert store.version == 3

    def test_apply_matches_plain_store(self):
        sharded = TimeSeriesStore()
        plain = TimeSeriesStore(n_shards=1)
        for target in (sharded, plain):
            target.insert_array(_series(0), [1, 2, 3], [1.0, 2.0, 3.0])
            target.apply(_series(0), lambda ts, vals: vals * 2.0)
        _assert_same_contents(sharded, plain)


class TestSnapshots:
    def test_snapshot_cached_per_version(self):
        store = TimeSeriesStore(n_shards=2)
        store.insert_array(_series(0), [1, 2], [1.0, 2.0])
        snap = store.snapshot()
        assert store.snapshot() is snap          # no writer: same object
        store.insert_array(_series(1), [1], [9.0])
        snap2 = store.snapshot()
        assert snap2 is not snap
        assert snap2.version == store.version

    def test_snapshot_is_bitwise_stable_while_source_mutates(self):
        store = TimeSeriesStore(n_shards=2)
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

    def test_cached_read_takes_no_shard_lock(self):
        """At an unchanged version a read returns the cached view at
        once, even while a writer holds a shard lock."""
        store = TimeSeriesStore(n_shards=4)
        store.insert_array(_series(0), [1, 2], [1.0, 2.0])
        view = store.read_view()
        got = []

        def reader():
            got.append((store.read_view(), store.arrays(_series(0))))

        with store._shards[store.shard_of(_series(0))].lock:
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "read blocked on a shard lock"
        assert got[0][0] is view
        assert got[0][1][0].tolist() == [1, 2]


class TestThreadedStress:
    N_WRITERS = 4

    def _run_threaded(self, workload, readers=0, n_shards=8):
        """Ingest with N writer threads (each owns a series subset so
        per-series order is preserved); optional reader threads take
        snapshots and record (snapshot, version, result) mid-ingest."""
        store = TimeSeriesStore(n_shards=n_shards)
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


class TestSqlOverShardedStore:
    QUERY = ("SELECT metric_name, COUNT(*) AS n, MIN(value) AS lo "
             "FROM tsdb WHERE timestamp BETWEEN 20 AND 180 "
             "AND tag['dc'] = 'east' GROUP BY metric_name")

    def test_sql_results_match_plain_store(self):
        workload = _workload()
        plain = _sequential_store(workload)
        sharded = TimeSeriesStore()
        for series, batches in workload.items():
            for ts, vals in batches:
                sharded.insert_array(series, ts, vals)
        db_plain, db_sharded = Database(), Database()
        register_store(db_plain, plain)
        register_store(db_sharded, sharded)
        assert (db_sharded.sql(self.QUERY).rows
                == db_plain.sql(self.QUERY).rows)

    def test_sql_during_ingest_matches_quiesced_run_at_same_version(self):
        """The acceptance clause: a query answered mid-ingest from a
        version-``v`` snapshot is identical to re-running it against
        that same snapshot after every writer has quiesced — the
        snapshot *is* the store at ``v``, and its answers never move."""
        workload = _workload(n_series=12, n_batches=6)
        store = TimeSeriesStore(n_shards=4)
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
        with TimeSeriesStore.open(path, n_shards=4) as store:
            for series, batches in workload.items():
                for ts, vals in batches:
                    store.insert_array(series, ts, vals)
        # Reopen into a different shard count: routing changes, data
        # must not.
        with TimeSeriesStore.open(path, n_shards=2) as reopened:
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
        store = TimeSeriesStore.open(path, n_shards=4)
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
