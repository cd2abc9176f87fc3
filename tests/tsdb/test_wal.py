"""Write-ahead log framing, batching, and crash recovery.

The crash model: a process dies mid-append, leaving an arbitrary byte
prefix of the final record (or garbage where a record should start).
Reopening the log must recover exactly the records whose frames are
intact and drop the torn tail — never a record in the middle, never
garbage rows.
"""

import os
import struct

import numpy as np
import pytest

from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.wal import (
    MAGIC,
    WriteAheadLog,
    decode_payload,
    encode_record,
)


def _series(i: int) -> SeriesId:
    return SeriesId.make("flow.bytecount",
                         {"src": f"datanode-{i}", "dest": "namenode"})


def _batch(i: int, n: int = 50):
    ts = np.arange(n, dtype=np.int64) + 10 * i
    vals = np.linspace(-1.0, 1.0, n) * (i + 1)
    vals[0] = np.nan
    return ts, vals


class TestRecordCodec:
    def test_round_trip_preserves_series_and_columns(self):
        series = _series(3)
        ts, vals = _batch(3)
        record = encode_record(series, ts, vals)
        length, crc = struct.unpack_from("<II", record, 0)
        assert length == len(record) - 8
        got_series, got_ts, got_vals = decode_payload(record[8:])
        assert got_series == series
        assert np.array_equal(got_ts, ts)
        assert np.array_equal(got_vals, vals, equal_nan=True)

    def test_tagless_series(self):
        series = SeriesId.make("runtime")
        record = encode_record(series, np.asarray([1], dtype=np.int64),
                               np.asarray([2.0]))
        got_series, got_ts, got_vals = decode_payload(record[8:])
        assert got_series == series and got_series.tags == ()

    def test_truncated_payload_raises(self):
        record = encode_record(_series(0), *_batch(0))
        with pytest.raises(SeriesFormatError):
            decode_payload(record[8:-8])


class TestAppendReplay:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as log:
            for i in range(7):
                log.append_array(_series(i), *_batch(i))
        replayed = TimeSeriesStore()
        points = WriteAheadLog(path).replay_into(replayed)
        assert points == 7 * 50
        for i in range(7):
            ts, vals = _batch(i)
            got_ts, got_vals = replayed.arrays(_series(i))
            assert np.array_equal(got_ts, ts)
            assert np.array_equal(got_vals, vals, equal_nan=True)

    def test_records_are_readonly_views_equal_to_appended(self, tmp_path):
        """Decoding copies nothing: each record yields read-only views
        of its payload, and replay copies each point once into the
        store, bit for bit (NaN, -0.0 and infinities included)."""
        path = tmp_path / "ingest.wal"
        batches = []
        with WriteAheadLog(path) as log:
            for i in range(5):
                ts, vals = _batch(i, n=4 + 7 * i)
                vals[1:4] = [-0.0, np.inf, -np.inf]
                batches.append((_series(i % 3), ts, vals))
                log.append_array(*batches[-1])
        log = WriteAheadLog(path)
        records = list(log.records())
        assert len(records) == len(batches)
        for (series, ts, vals), (got_series, got_ts, got_vals) in zip(
                batches, records):
            assert got_series == series
            assert got_ts.dtype == np.int64 and got_vals.dtype == np.float64
            assert not got_ts.flags.writeable
            assert not got_vals.flags.writeable
            assert not got_ts.flags.owndata and not got_vals.flags.owndata
            assert got_ts.tobytes() == ts.tobytes()
            assert got_vals.tobytes() == vals.tobytes()
        replayed = TimeSeriesStore()
        log.replay_into(replayed)
        log.close()
        for i in range(3):
            mine = [b for b in batches if b[0] == _series(i)]
            got_ts, got_vals = replayed.arrays(_series(i))
            assert got_ts.tobytes() == b"".join(t.tobytes()
                                                for _, t, _ in mine)
            assert got_vals.tobytes() == b"".join(v.tobytes()
                                                  for _, _, v in mine)
        assert not np.shares_memory(replayed.arrays(_series(0))[1],
                                    records[0][2])

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as log:
            log.append_array(_series(0), *_batch(0))
        with WriteAheadLog(path) as log:
            log.append_array(_series(0),
                             np.asarray([1000], dtype=np.int64),
                             np.asarray([5.0]))
        store = TimeSeriesStore()
        WriteAheadLog(path).replay_into(store)
        ts, _ = store.arrays(_series(0))
        assert ts.size == 51 and int(ts[-1]) == 1000

    def test_fsync_batching_counts(self, tmp_path):
        log = WriteAheadLog(tmp_path / "w.wal", fsync_every=4)
        for i in range(10):
            log.append_array(_series(0),
                             np.asarray([i], dtype=np.int64),
                             np.asarray([float(i)]))
        assert log.records_written == 10
        assert log.sync_count == 2          # at 4 and 8; 2 still pending
        log.close()
        assert log.sync_count == 3          # close flushes the tail

    def test_fsync_every_must_be_positive(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            WriteAheadLog(tmp_path / "w.wal", fsync_every=0)


class TestCrashRecovery:
    def _write_log(self, path, n=5):
        with WriteAheadLog(path) as log:
            for i in range(n):
                log.append_array(_series(i), *_batch(i))
        return os.path.getsize(path)

    def test_truncated_tail_record_is_dropped(self, tmp_path):
        """Every possible torn-tail length of the final record recovers
        exactly the first n-1 records."""
        path = tmp_path / "crash.wal"
        self._write_log(path, n=3)
        size = os.path.getsize(path)
        record_len = len(encode_record(_series(2), *_batch(2)))
        intact = size - record_len
        # Chop the last record at representative offsets: frame header
        # torn, payload torn at both ends, single byte missing.
        for keep in (0, 4, 8, 9, record_len // 2, record_len - 1):
            torn = tmp_path / f"torn-{keep}.wal"
            torn.write_bytes(path.read_bytes()[:intact + keep])
            store = TimeSeriesStore()
            points = WriteAheadLog(torn).replay_into(store)
            assert points == 2 * 50, f"keep={keep}"
            assert _series(2) not in store
            # Recovery truncated the debris: the reopened file ends on
            # the last intact record boundary.
            assert os.path.getsize(torn) == intact

    def test_corrupt_crc_stops_replay_at_last_good_record(self, tmp_path):
        path = tmp_path / "crash.wal"
        self._write_log(path, n=3)
        data = bytearray(path.read_bytes())
        record_len = len(encode_record(_series(2), *_batch(2)))
        # Flip one payload byte of the *middle* record: it and
        # everything after must be discarded.
        middle_start = len(data) - 2 * record_len
        data[middle_start + 8 + 3] ^= 0xFF
        path.write_bytes(bytes(data))
        store = TimeSeriesStore()
        points = WriteAheadLog(path).replay_into(store)
        assert points == 50
        assert _series(0) in store and _series(1) not in store

    def test_bad_magic_resets_file(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"not a wal file at all")
        store = TimeSeriesStore()
        assert WriteAheadLog(path).replay_into(store) == 0
        assert path.read_bytes() == MAGIC

    def test_empty_and_missing_files(self, tmp_path):
        empty = tmp_path / "empty.wal"
        empty.write_bytes(b"")
        assert WriteAheadLog(empty).replay_into(TimeSeriesStore()) == 0
        missing = tmp_path / "missing.wal"
        assert WriteAheadLog(missing).replay_into(TimeSeriesStore()) == 0
        assert missing.read_bytes() == MAGIC

    def test_recovered_log_accepts_new_appends(self, tmp_path):
        path = tmp_path / "crash.wal"
        self._write_log(path, n=2)
        record_len = len(encode_record(_series(1), *_batch(1)))
        data = path.read_bytes()
        path.write_bytes(data[:-record_len // 2])   # tear the tail
        with WriteAheadLog(path) as log:
            log.append_array(_series(9), *_batch(9))
        store = TimeSeriesStore()
        assert WriteAheadLog(path).replay_into(store) == 2 * 50
        assert _series(0) in store and _series(9) in store
        assert _series(1) not in store


class TestGenerations:
    def test_truncate_starts_next_generation_and_replay_skips_covered(
            self, tmp_path):
        path = tmp_path / "gen.wal"
        with WriteAheadLog(path) as log:
            assert log.position == (0, 0)
            for i in range(3):
                log.append_array(_series(i), *_batch(i))
            cut = log.position
            assert cut == (0, 3)
            log.append_array(_series(3), *_batch(3))
        # Reopening recovers the generation and the record count.
        log = WriteAheadLog(path)
        assert log.position == (0, 4)
        store = TimeSeriesStore()
        assert log.replay_into(store, cut) == 50       # only record 3
        assert store.series_ids() == [_series(3)]
        log.truncate()
        assert log.position == (1, 0)
        assert path.read_bytes() == MAGIC[:6] + b"\x01\x00"
        log.append_array(_series(4), *_batch(4))
        log.close()
        # A cut from generation 0 covers nothing in generation 1.
        store = TimeSeriesStore()
        assert WriteAheadLog(path).replay_into(store, cut) == 50
        assert store.series_ids() == [_series(4)]
