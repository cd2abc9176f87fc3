"""Sharded concurrent ingest tier over per-shard columnar stores.

:class:`ShardedTimeSeriesStore` is the production write path: series ids
hash onto N independent :class:`~repro.tsdb.storage.TimeSeriesStore`
shards, each guarded by its own lock, so writers touching different
shards never contend — and the heavy per-batch work (dtype copies,
monotonicity checks, the zone-map sort at seal time) is numpy code that
releases the GIL, which is what lets K ingest threads scale on K cores.

**Routing** is ``crc32(str(series)) % n_shards``: deterministic across
processes and runs (Python's ``hash`` is salted per process), so a WAL
written by one process replays into identical shard placement in
another, and tests can assert placement without fixing seeds.

**Reads** are snapshot-based.  :meth:`snapshot` briefly takes every
shard lock in index order, freezes each series — an O(chunks) copy of
chunk *references* to sealed immutable numpy arrays, never data — and
returns a plain single-threaded ``TimeSeriesStore``.  Queries then run
lock-free on the snapshot: nothing a concurrent writer does can change
the bytes a frozen chunk holds, so a query against a snapshot at
version ``v`` is bitwise-identical to the same query against a quiesced
store at ``v``.  Snapshots are cached per version; while no writer
lands, repeated reads reuse one snapshot object.  Every plain read
method on this class (``arrays``, ``find``, ``iter_arrays``, …)
delegates to the cached snapshot, so single-threaded callers can treat
the sharded store as a drop-in ``TimeSeriesStore``.

**Versioning** keeps the store-wide monotonic contract: one global
counter, bumped under the mutating shard's lock, so any mutation that
completed before a snapshot was cut is reflected in both the snapshot's
data and its version — equal versions still guarantee identical bytes.

**Durability** is optional: pass ``wal=`` a path (or a
:class:`~repro.tsdb.wal.WriteAheadLog`) and every bulk append is logged
— inside the shard lock, so log order is consistent with per-series
insertion order — with batched fsync.  :meth:`open` replays an existing
log before attaching it, which is the crash-recovery path.
"""

from __future__ import annotations

import os
import threading
import zlib
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.tsdb.model import (
    ChunkStats,
    DataPoint,
    SeriesData,
    SeriesFormatError,
    SeriesId,
)
from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.wal import WriteAheadLog

DEFAULT_SHARDS = 8


def shard_index(series: SeriesId, n_shards: int) -> int:
    """Deterministic shard routing: ``crc32`` of the canonical series text.

    ``str(series)`` renders the metric name plus the *sorted* tag pairs,
    so equal series ids land on the same shard regardless of tag
    insertion order, process, or interpreter hash seed.
    """
    return zlib.crc32(str(series).encode("utf-8")) % n_shards


class ShardedTimeSeriesStore:
    """Hash-sharded, lock-per-shard store with snapshot reads and a WAL."""

    def __init__(self, n_shards: int = DEFAULT_SHARDS,
                 wal: str | Path | WriteAheadLog | None = None,
                 fsync_every: int = 64) -> None:
        if n_shards <= 0:
            raise SeriesFormatError("n_shards must be positive")
        self._shards = [TimeSeriesStore() for _ in range(n_shards)]
        self._locks = [threading.Lock() for _ in range(n_shards)]
        self._version_lock = threading.Lock()
        self._version = 0
        self._snap: tuple[int, TimeSeriesStore] | None = None
        if wal is None or isinstance(wal, WriteAheadLog):
            self._wal = wal
        else:
            self._wal = WriteAheadLog(wal, fsync_every=fsync_every)

    @classmethod
    def open(cls, wal_path: str | Path, n_shards: int = DEFAULT_SHARDS,
             fsync_every: int = 64,
             snapshot: str | Path | None = None) -> "ShardedTimeSeriesStore":
        """Open (or create) a WAL-backed store, replaying existing records.

        Replay happens *before* the log is attached, so recovered
        records are not re-appended; after recovery the same log keeps
        receiving new appends.

        ``snapshot`` names a checkpoint file (see :meth:`checkpoint`):
        when it exists it is bulk-loaded first, and the WAL — which a
        checkpoint truncated down to the records that arrived *after*
        the snapshot was cut — replays on top.  A missing snapshot file
        is not an error (no checkpoint has happened yet); recovery is
        then WAL-only, exactly as before.
        """
        log = WriteAheadLog(wal_path, fsync_every=fsync_every)
        store = cls(n_shards=n_shards, wal=None)
        if snapshot is not None and Path(snapshot).exists():
            from repro.tsdb.persist import read_store
            base = read_store(snapshot)
            for series, ts, vals in base.iter_arrays():
                store.insert_array(series, ts, vals)
        log.replay_into(store)
        store._wal = log
        return store

    @classmethod
    def from_arrays(cls, series_arrays: Mapping[
            SeriesId, tuple[Iterable[int], Iterable[float]]],
            n_shards: int = DEFAULT_SHARDS) -> "ShardedTimeSeriesStore":
        """Bulk-build like :meth:`TimeSeriesStore.from_arrays`."""
        store = cls(n_shards=n_shards)
        for series, (timestamps, values) in series_arrays.items():
            store.insert_array(series, timestamps, values)
        return store

    # ------------------------------------------------------------------
    # Sharding introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, series: SeriesId) -> int:
        """The shard index a series routes to (stable across processes)."""
        return shard_index(series, len(self._shards))

    def shard_sizes(self) -> list[int]:
        """Points per shard — the balance the hash routing achieved."""
        sizes = []
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                sizes.append(shard.num_points())
        return sizes

    # ------------------------------------------------------------------
    # Ingest (one lock per shard; WAL + version bump inside the lock)
    # ------------------------------------------------------------------
    def insert(self, series: SeriesId, timestamp: int, value: float) -> None:
        """Insert one observation (logged as a one-point bulk record)."""
        idx = self.shard_of(series)
        with self._locks[idx]:
            self._shards[idx].insert(series, timestamp, value)
            if self._wal is not None:
                self._wal.append_array(
                    series, np.asarray([timestamp], dtype=np.int64),
                    np.asarray([value], dtype=np.float64))
            self._bump()

    def insert_point(self, point: DataPoint) -> None:
        self.insert(point.series, point.timestamp, point.value)

    def insert_array(self, series: SeriesId, timestamps: Iterable[int],
                     values: Iterable[float]) -> None:
        """Bulk-insert one column pair; the concurrent fast path.

        Validation and the zone-map seal happen inside the shard's
        store under that shard's lock only; the batch is logged to the
        WAL before the lock is released so log order matches per-series
        apply order.  Empty input is a no-op (nothing logged, no
        version bump), mirroring the single-threaded store.
        """
        ts = (timestamps if isinstance(timestamps, np.ndarray)
              else np.asarray(list(timestamps)))
        vals = (values if isinstance(values, np.ndarray)
                else np.asarray(list(values)))
        if ts.size == 0 and vals.size == 0:
            return
        idx = self.shard_of(series)
        with self._locks[idx]:
            self._shards[idx].insert_array(series, ts, vals)
            if self._wal is not None:
                self._wal.append_array(series, ts, vals)
            self._bump()

    def apply(self, series: SeriesId,
              transform: Callable[[np.ndarray, np.ndarray], np.ndarray]
              ) -> None:
        """In-place value rewrite (fault overlays); not WAL-logged —
        the log's durability scope is ingest, transforms are replayable
        experiment steps."""
        idx = self.shard_of(series)
        with self._locks[idx]:
            self._shards[idx].apply(series, transform)
            self._bump()

    def merge(self, other) -> None:
        """Merge another store's contents (bulk path per series, logged)."""
        for series, ts, values in other.iter_arrays():
            self.insert_array(series, ts, values)

    def _bump(self) -> None:
        with self._version_lock:
            self._version += 1

    # ------------------------------------------------------------------
    # Snapshots — the read path
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Global monotonic mutation counter (see ``TimeSeriesStore.version``)."""
        with self._version_lock:
            return self._version

    def snapshot(self) -> TimeSeriesStore:
        """A consistent, lock-free-readable view of the whole store.

        Takes every shard lock in index order (bounded: no writer holds
        more than its own), freezes each series' sealed chunks, and
        merges the clones into one plain ``TimeSeriesStore`` carrying
        the global version.  Cached per version: while no mutation
        lands, every caller shares one snapshot object, so the
        steady-state read cost is a version comparison.
        """
        for lock in self._locks:
            lock.acquire()
        try:
            return self._snapshot_locked()
        finally:
            for lock in reversed(self._locks):
                lock.release()

    #: What the SQL/persistence seams read through: a multi-series walk
    #: must not straddle a version change (cf. the plain ``read_view``).
    read_view = snapshot

    def _snapshot_locked(self) -> TimeSeriesStore:
        """Snapshot body; caller holds every shard lock (in index order)."""
        version = self._version
        if self._snap is not None and self._snap[0] == version:
            return self._snap[1]
        snap = TimeSeriesStore()
        for shard in self._shards:
            shard._freeze_into(snap)
        snap._version = version
        self._snap = (version, snap)
        return snap

    # ------------------------------------------------------------------
    # Read API — every method answers from the cached snapshot, so the
    # sharded store is a drop-in TimeSeriesStore for readers.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshot())

    def __contains__(self, series: SeriesId) -> bool:
        return series in self.snapshot()

    def num_points(self) -> int:
        return self.snapshot().num_points()

    def series_ids(self) -> list[SeriesId]:
        return self.snapshot().series_ids()

    def metric_names(self) -> list[str]:
        return self.snapshot().metric_names()

    def tag_keys(self) -> list[str]:
        return self.snapshot().tag_keys()

    def tag_values(self, key: str) -> list[str]:
        return self.snapshot().tag_values(key)

    def time_range(self) -> tuple[int, int]:
        return self.snapshot().time_range()

    def value_range(self) -> tuple[float, float] | None:
        return self.snapshot().value_range()

    def chunk_stats(self, series: SeriesId) -> tuple[ChunkStats, ...]:
        return self.snapshot().chunk_stats(series)

    def find(self, name: str | None = None,
             tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        return self.snapshot().find(name, tags)

    def find_exact(self, name: str | None = None,
                   tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        return self.snapshot().find_exact(name, tags)

    def get(self, series: SeriesId) -> SeriesData:
        """The frozen column for a series (a read-stable clone)."""
        return self.snapshot().get(series)

    def arrays(self, series: SeriesId, start: int | None = None,
               end: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        return self.snapshot().arrays(series, start, end)

    def scan_arrays(self, series: SeriesId,
                    start: int | None = None, end: int | None = None,
                    value_lo: float | None = None,
                    value_hi: float | None = None
                    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        return self.snapshot().scan_arrays(series, start, end,
                                           value_lo, value_hi)

    def iter_arrays(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None, end: int | None = None
                    ) -> Iterator[tuple[SeriesId, np.ndarray, np.ndarray]]:
        return self.snapshot().iter_arrays(series_ids, start, end)

    def iter_points(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None,
                    end: int | None = None) -> Iterator[DataPoint]:
        return self.snapshot().iter_points(series_ids, start, end)

    # ------------------------------------------------------------------
    # WAL lifecycle
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def checkpoint(self, path: str | Path) -> int:
        """Persist a consistent cut to ``path`` and truncate the WAL.

        Bounds recovery time: without checkpoints the WAL grows without
        limit and :meth:`open` replays every record ever ingested.  A
        checkpoint writes the current contents as a binary chunkfile
        snapshot (crash-safe: written to a temp file, fsync'd, then
        atomically renamed over ``path``) and *then* truncates the WAL
        back to its header — so at every instant, snapshot + WAL
        together contain the full store.  Recovery is
        ``open(wal_path, snapshot=path)``.

        Holds every shard lock for the duration, which quiesces writers
        exactly like :meth:`snapshot` (the snapshot itself is the cached
        per-version freeze, so a checkpoint right after reads is
        copy-free); the WAL cannot advance between the cut and the
        truncate.  Returns the snapshot's size in bytes.
        """
        from repro.tsdb.persist import save_store
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        for lock in self._locks:
            lock.acquire()
        try:
            snap = self._snapshot_locked()
            n_bytes = save_store(snap, tmp, format="binary")
            with tmp.open("rb") as handle:
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self._wal is not None:
                self._wal.truncate()
            return n_bytes
        finally:
            for lock in reversed(self._locks):
                lock.release()

    def flush(self) -> None:
        """fsync any batched WAL records (no-op without a WAL)."""
        if self._wal is not None:
            self._wal.flush()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "ShardedTimeSeriesStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
