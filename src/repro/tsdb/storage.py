"""The time series store: one mutable class, one frozen read view.

:class:`TimeSeriesStore` is the only mutable store: chunked numpy
columns, inverted indexes on metric names and tags, time bounds and one
lock that every write takes.

**Reads** are written once, on :class:`StoreView`: a store frozen at one
version (index copies plus :meth:`SeriesData.freeze` clones, which copy
chunk references, never data, and never reshape the source).  Each read
method starts from ``self.read_view()``: a view answers from itself, the
store from the view cached for its current version — one lock-free
version comparison while no writer lands.

**Versioning**: one monotonic counter, bumped under the lock after the
mutation (and its WAL record) lands.  It also moves when ``apply``
rewrites values in place, so every derived cache keys on it, never on
``num_points()``.

**Durability** is optional: with ``wal=`` every write is logged inside
the lock, after it is validated and before the column changes, so a
write whose log append fails is not served either.
:meth:`TimeSeriesStore.checkpoint` writes a chunkfile recording which
WAL records it covers before truncating the log, and
:meth:`TimeSeriesStore.open` adopts its memmap'd columns and replays
only the rest, so a crash anywhere in a checkpoint recovers every
acknowledged write exactly once.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from repro.tsdb.model import (
    ChunkStats,
    DataPoint,
    SeriesData,
    SeriesFormatError,
    SeriesId,
    WriteLog,
    series_sort_key,
)
from repro.tsdb.wal import WriteAheadLog, replace_durably

T = TypeVar("T")

#: How many views keep what :meth:`StoreView.derived` built for them,
#: least recently asked first out.  A view can outlive its use (a served
#: result holds its snapshot) and must not pin a table per version; the
#: server keeps two versions warm, and one more covers the newest view
#: before it has a version state.  Views are held weakly: a dropped view
#: frees its values at once.
DERIVED_VIEWS = 3
_derived_views: "OrderedDict[int, weakref.ref]" = OrderedDict()
_derived_lock = threading.RLock()

#: How many views back :meth:`StoreView.written_since` reaches: each
#: view carries the series written before it, up to this many views.
#: A served explain refreshes from the last explain's view, so it
#: reaches back one view per view other readers froze in between:
#: every refresh in the end-to-end benchmark workloads reaches 1 view
#: back, and the serving tests' interleaved writes and reads at most 5.
#: A refresh from further back compares every member column instead
#: (~0.26 ms for 605 series), which stays correct.
WRITE_LOG_VIEWS = 8


class StoreView:
    """A read-only store at one version: frozen columns + indexes.

    Holds no lock and has no mutators.  Every read method is defined
    here, once, and starts from :meth:`read_view` — a view returns
    itself, :class:`TimeSeriesStore` its current view — so the same
    code answers for both, and reader type hints name this class.
    """

    def __init__(self, columns: dict[SeriesId, SeriesData],
                 by_name: dict[str, set[SeriesId]],
                 by_tag: dict[tuple[str, str], set[SeriesId]],
                 tag_values: dict[str, set[str]],
                 span: tuple[int, int] | None, version: int,
                 log: tuple[tuple[int, tuple[SeriesId, ...]], ...] = ()
                 ) -> None:
        self._columns = columns
        self._by_name = by_name
        self._by_tag = by_tag
        self._tag_values = tag_values
        self._span = span
        self._version = version
        #: ``(since, written)`` per view, oldest first: the series
        #: written after the view at version ``since`` and before the
        #: next entry's (this view, for the last entry).
        self._log = log
        self._derived: dict[Callable, object] = {}

    def read_view(self) -> "StoreView":
        """The frozen view reads run against: a view is its own."""
        return self

    def snapshot(self) -> "StoreView":
        """The current frozen view (same as :meth:`read_view`)."""
        return self.read_view()

    def derived(self, build: Callable[["StoreView"], T]) -> T:
        """``build(view)``, built once per view (a view never changes)
        even when first callers race, then shared: e.g. the ``tsdb``
        table and its scan index.  Only the :data:`DERIVED_VIEWS` views
        asked most recently keep theirs; an older one builds anew."""
        view = self.read_view()
        with _derived_lock:
            if build not in view._derived:
                view._derived[build] = build(view)
            key = id(view)
            _derived_views[key] = weakref.ref(
                view, lambda _, key=key: _derived_views.pop(key, None))
            _derived_views.move_to_end(key)
            while len(_derived_views) > DERIVED_VIEWS:
                old = _derived_views.popitem(last=False)[1]()
                if old is not None:
                    old._derived.clear()
            return view._derived[build]

    def derived_before(self, build: Callable[["StoreView"], T]
                       ) -> tuple[T, set[SeriesId]] | None:
        """What ``build`` built for the newest earlier view of this
        store that still keeps it (see :meth:`derived`), with the series
        written since that view — for a ``build`` that can derive its
        value from an earlier one instead of starting over.

        ``None`` when no kept view is older, a series joined since
        (:attr:`series_token` differs) or the write log no longer
        reaches back to it.  A view refers to no other view: the
        earlier value is found through the :data:`DERIVED_VIEWS`
        registry, so at most that many stay alive.
        """
        view = self.read_view()
        with _derived_lock:
            earlier = None
            for ref in _derived_views.values():
                old = ref()
                if old is not None and build in old._derived \
                        and old._by_name is view._by_name \
                        and old._version < view._version \
                        and (earlier is None
                             or old._version > earlier._version):
                    earlier = old
            if earlier is None:
                return None
            written = view.written_since(earlier._version)
            if written is None:
                return None
            return earlier._derived[build], written

    @property
    def version(self) -> int:
        """Monotonic mutation counter — the cache-coherence contract.

        Bumped by every ``insert``/``insert_array``/``apply``/``merge``
        call that changes stored data.  Any value derived from the
        store (rollup tables, the lazy ``tsdb`` SQL provider, score
        matrices, …) belongs in a
        :class:`~repro.versioned.VersionedCache` keyed on it; never key
        on ``num_points()``, which misses in-place ``apply`` rewrites.
        Equal versions guarantee identical contents.
        """
        return self._version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.read_view()._columns)

    def __contains__(self, series: SeriesId) -> bool:
        return series in self.read_view()._columns

    def num_points(self) -> int:
        """Total number of stored observations across all series."""
        return sum(len(col) for col in self.read_view()._columns.values())

    def series_ids(self) -> list[SeriesId]:
        """All series ids in a stable order."""
        return sorted(self.read_view()._columns, key=series_sort_key)

    def metric_names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted(self.read_view()._by_name)

    def tag_keys(self) -> list[str]:
        """Sorted distinct tag keys seen across all series."""
        return sorted(self.read_view()._tag_values)

    def tag_values(self, key: str) -> list[str]:
        """Sorted distinct values observed for one tag key."""
        return sorted(self.read_view()._tag_values.get(key, ()))

    def time_range(self) -> tuple[int, int]:
        """(min, max) timestamp over the whole store, in O(1).

        Raises :class:`SeriesFormatError` on an empty store so callers
        never silently operate on a sentinel range.
        """
        span = self.read_view()._span
        if span is None:
            raise SeriesFormatError("store is empty; no time range")
        return span

    def chunk_stats(self, series: SeriesId) -> tuple[ChunkStats, ...]:
        """Per-sealed-chunk zone maps for one series (see
        :meth:`SeriesData.chunk_stats`)."""
        return self.get(series).chunk_stats()

    def value_range(self) -> tuple[float, float] | None:
        """(min, max) over all non-NaN values, from zone maps only.

        O(total chunks) over the zone columns, touching no data column.
        ``None`` when the store holds no non-NaN value.  Of equal
        extremes (``0.0`` and ``-0.0``) the first chunk's wins, in the
        view's column order: series in first-write order.
        """
        columns = [column.zone_columns()[1]
                   for column in self.read_view()._columns.values()]
        if not columns:
            return None
        floats = np.concatenate(columns)
        floats = floats[~np.isnan(floats[:, 0])]   # all-NaN chunks
        if not floats.size:
            return None
        lo, hi = floats[:, 0], floats[:, 1]
        return (float(lo[np.argmax(lo == lo.min())]),
                float(hi[np.argmax(hi == hi.max())]))

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def find(self, name: str | None = None,
             tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        """Return series matching a name glob and tag-value globs.

        The indexes are consulted for exact (non-glob) terms; glob terms
        fall back to a filtered walk of the candidate set.
        """
        view = self.read_view()
        sets = []
        if name is not None and "*" not in name:
            sets.append(view._by_name.get(name, set()))
        for key, value in (tags or {}).items():
            if "*" not in str(value):
                sets.append(view._by_tag.get((key, str(value)), set()))
        candidates = _intersect(sets) if sets else view._columns
        return sorted((s for s in candidates if s.matches(name, tags)),
                      key=series_sort_key)

    def find_exact(self, name: str | None = None,
                   tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        """Series matching a name and tag values *literally* (no globs).

        The predicate-pushdown path uses this instead of :meth:`find`
        because SQL equality must not glob-expand a ``*`` inside a
        string literal.  Pure index intersection: never walks all
        series when any exact term is given.
        """
        view = self.read_view()
        sets = []
        if name is not None:
            sets.append(view._by_name.get(name, set()))
        for key, value in (tags or {}).items():
            sets.append(view._by_tag.get((key, str(value)), set()))
        if not sets:
            return view.series_ids()
        return sorted(_intersect(sets), key=series_sort_key)

    def get(self, series: SeriesId) -> SeriesData:
        """The frozen chunked column pair for a series id."""
        try:
            return self.read_view()._columns[series]
        except KeyError:
            raise SeriesFormatError(f"unknown series: {series}") from None

    def get_many(self, series_ids: Iterable[SeriesId]
                 ) -> tuple[SeriesData, ...]:
        """:meth:`get` for many series, in order, in one call."""
        columns = self.read_view()._columns
        try:
            return tuple(map(columns.__getitem__, series_ids))
        except KeyError as exc:
            raise SeriesFormatError(f"unknown series: {exc.args[0]}") from None

    @property
    def series_token(self) -> object:
        """Identity of this view's series set within its store.

        Two views of one store return the same object exactly when no
        series joined between them (series are never removed), and
        views of different stores never share it — so ``is`` tells a
        refresh that the set of series it scanned is the same set.
        """
        return self.read_view()._by_name

    def written_since(self, version: int) -> set[SeriesId] | None:
        """The series written after this store's view at ``version``.

        Read from the write log each view carries: O(series written),
        touching no column.  ``version`` must be that of a view of this
        same store (views of other stores have their own versions;
        :attr:`series_token` tells them apart).  ``None`` when the log
        no longer reaches back to ``version`` (more than
        :data:`WRITE_LOG_VIEWS` views ago) or no view was frozen at
        ``version`` (a later one, say): the caller must then compare
        columns itself.  Series that joined are included.
        """
        view = self.read_view()
        written: set[SeriesId] = set()
        if version == view._version:
            return written
        for since, series in reversed(view._log):
            written.update(series)
            if since <= version:
                return written if since == version else None
        return None

    def arrays(self, series: SeriesId,
               start: int | None = None,
               end: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(timestamps, values)`` numpy arrays clipped to a range.

        The range is inclusive of ``start`` and exclusive of ``end``;
        either bound may be ``None`` for an open end.  The returned
        arrays are read-only views of the series' cached consolidated
        columns (no copy); the clip is two ``searchsorted`` probes on
        the sorted timestamp column.
        """
        return clipped_arrays(self.get(series), start, end)

    def iter_arrays(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None,
                    end: int | None = None
                    ) -> Iterator[tuple[SeriesId, np.ndarray, np.ndarray]]:
        """Yield ``(series, timestamps, values)`` column triples.

        The bulk read path: one cached-view slice per series, no
        per-point object allocation, all from one view.  Prefer this
        over :meth:`iter_points` wherever whole columns are consumed.
        """
        view = self.read_view()
        ids = list(series_ids) if series_ids is not None else view.series_ids()
        for series in ids:
            ts, values = view.arrays(series, start, end)
            yield series, ts, values

    def iter_points(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None,
                    end: int | None = None) -> Iterator[DataPoint]:
        """Yield data points across series, in per-series time order.

        Each yielded point is one :class:`DataPoint` (the point-at-a-time
        API) — use :meth:`iter_arrays` for allocation-free bulk reads.
        """
        for series, ts, values in self.iter_arrays(series_ids, start, end):
            for t, v in zip(ts.tolist(), values.tolist()):
                yield DataPoint(series=series, timestamp=t, value=v)


def clipped_arrays(column: SeriesData, start: int | None = None,
                   end: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A column's ``(timestamps, values)`` in ``[start, end)`` — what
    :meth:`StoreView.arrays` returns for it, without the lookup."""
    ts, values = column.arrays()
    if start is not None or end is not None:
        lo = int(np.searchsorted(ts, start, side="left")) \
            if start is not None else 0
        hi = int(np.searchsorted(ts, end, side="left")) \
            if end is not None else ts.size
        ts, values = ts[lo:hi], values[lo:hi]
    return ts, values


def _intersect(sets: list[set[SeriesId]]) -> set[SeriesId]:
    smallest = min(sets, key=len)
    result = set(smallest)
    for other in sets:
        if other is not smallest:
            result &= other
    return result


class TimeSeriesStore(StoreView):
    """The mutable store: one lock over its columns, indexes and WAL."""

    def __init__(self, wal: str | Path | WriteAheadLog | None = None,
                 fsync_every: int = 64) -> None:
        self._lock = threading.Lock()
        #: series -> live column, filled on a series' first write.
        self._live: dict[SeriesId, SeriesData] = {}
        #: name -> series, (tag key, value) -> series, tag key -> values;
        #: a view copies them when a series joined.
        self._indexes = tuple(defaultdict(set) for _ in range(3))
        self._min_ts: int | None = None
        self._max_ts: int | None = None
        #: mutations landed so far; bumped under ``_lock``.
        self._version = 0
        #: columns written since the last view was frozen, in first-write
        #: order (a dict used as an ordered set); drained by the next
        #: view into its columns and its write log.
        self._written: dict[SeriesData, None] = {}
        self._view = StoreView({}, {}, {}, {}, None, 0)
        if wal is None or isinstance(wal, WriteAheadLog):
            self._wal = wal
        else:
            self._wal = WriteAheadLog(wal, fsync_every=fsync_every)

    @classmethod
    def open(cls, wal_path: str | Path, fsync_every: int = 64,
             snapshot: str | Path | None = None) -> "TimeSeriesStore":
        """Open (or create) a WAL-backed store — the crash-recovery path.

        ``snapshot`` names a checkpoint chunkfile (see
        :meth:`checkpoint`); when it exists its memmap'd columns are
        adopted without a copy.  The WAL then replays every record the
        snapshot does not already cover, *before* the log is attached,
        so recovered records are not re-appended.  A missing snapshot
        file is not an error (no checkpoint has happened yet): recovery
        is then WAL-only.
        """
        from repro.tsdb.chunkfile import load_chunkfile
        store = cls()
        covered = None
        if snapshot is not None and Path(snapshot).exists():
            covered = load_chunkfile(store, snapshot)
        log = WriteAheadLog(wal_path, fsync_every=fsync_every)
        log.replay_into(store, covered)
        store._wal = log
        return store

    @classmethod
    def from_arrays(cls, series_arrays: Mapping[
            SeriesId, tuple[Iterable[int], Iterable[float]]]
            ) -> "TimeSeriesStore":
        """Build a store from ``{series: (timestamps, values)}`` columns,
        one bulk ``insert_array`` per series."""
        store = cls()
        for series, (timestamps, values) in series_arrays.items():
            store.insert_array(series, timestamps, values)
        return store

    # ------------------------------------------------------------------
    # Ingest (one lock; WAL + version bump inside it)
    # ------------------------------------------------------------------
    def insert(self, series: SeriesId, timestamp: int, value: float) -> None:
        """Insert one observation; timestamps per series must be sorted."""
        column = self._live.get(series)
        if column is None:
            self._write(series, lambda c, log: c.append(timestamp, value, log))
            return
        # acquire/release rather than ``with``: this is the per-point
        # hot path, and the context-manager protocol costs more than
        # the rest of the bookkeeping.
        self._lock.acquire()
        try:
            column.append(timestamp, value, None if self._wal is None
                          else self._wal.append_array)
            if timestamp > self._max_ts:   # an existing series: min stays
                self._max_ts = int(timestamp)
            self._written[column] = None
            self._version += 1
        finally:
            self._lock.release()

    def insert_point(self, point: DataPoint) -> None:
        """Insert a :class:`DataPoint`."""
        self.insert(point.series, point.timestamp, point.value)

    def insert_array(self, series: SeriesId, timestamps: Iterable[int],
                     values: Iterable[float]) -> None:
        """Bulk-insert one column pair as one sealed chunk.

        Validation and the zone-map seal run under the store's lock; the
        batch is logged between the two, so log order matches per-series
        apply order and a batch that fails validation or logging leaves
        no trace.  Empty input is a no-op: nothing is logged or
        registered, the version stays.
        """
        ts = (timestamps if isinstance(timestamps, np.ndarray)
              else np.asarray(list(timestamps)))
        vals = (values if isinstance(values, np.ndarray)
                else np.asarray(list(values)))
        if ts.size == 0 and vals.size == 0:
            return
        self._write(series, lambda c, log: c.extend(ts, vals, log))

    def _write(self, series: SeriesId,
               write: Callable[[SeriesData, WriteLog | None], object]
               ) -> None:
        """``write(column, log)`` to ``series``' column under the lock,
        then bump the version.  The column calls ``log`` (the WAL's
        append, if any) after validating and before changing anything,
        so a write that fails validation or logging leaves the column as
        it was; a series' first write registers its column only once
        ``write`` succeeded."""
        with self._lock:
            log = None if self._wal is None else self._wal.append_array
            column = self._live.get(series)
            if column is None:
                column = SeriesData(series=series)
                write(column, log)
                self._register(column)
            else:
                write(column, log)
            self._observe(column)
            self._written[column] = None
            self._version += 1

    def _adopt(self, column: SeriesData) -> None:
        """Register an already-built column without copying its data —
        the chunkfile load path; counts as one mutation."""
        with self._lock:
            self._register(column)
            self._observe(column)
            self._written[column] = None
            self._version += 1

    def _register(self, column: SeriesData) -> None:
        series = column.series
        by_name, by_tag, tag_values = self._indexes
        self._live[series] = column
        by_name[series.name].add(series)
        for key, value in series.tags:
            by_tag[(key, value)].add(series)
            tag_values[key].add(value)

    def _observe(self, column: SeriesData) -> None:
        lo, hi = column.min_timestamp, column.max_timestamp
        if lo is not None and self._min_ts is not None:
            lo, hi = min(lo, self._min_ts), max(hi, self._max_ts)
        if lo is not None:
            self._min_ts, self._max_ts = lo, hi

    def apply(self, series: SeriesId,
              transform: Callable[[np.ndarray, np.ndarray], np.ndarray]
              ) -> None:
        """Replace a series' values with ``transform(timestamps, values)``.

        The transform receives a writable copy of the values and must
        return an array of the same length; this is how fault injectors
        overlay faults on clean traces.  The swap bumps :attr:`version`
        even though ``num_points()`` is unchanged.  Not WAL-logged: the
        log's durability scope is ingest, transforms are replayable
        experiment steps.
        """
        with self._lock:
            column = self._live.get(series)
            if column is None:
                raise SeriesFormatError(f"unknown series: {series}")
            ts, values = column.arrays()
            new_values = np.asarray(transform(ts, values.copy()),
                                    dtype=np.float64)
            if new_values.shape != values.shape:
                raise SeriesFormatError(
                    f"transform changed length of {series}: "
                    f"{values.shape} -> {new_values.shape}")
            column.replace_values(new_values)
            self._written[column] = None
            self._version += 1

    def merge(self, other: StoreView) -> None:
        """Merge another store's contents, one bulk chunk per series."""
        for series, ts, values in other.iter_arrays():
            self.insert_array(series, ts, values)

    # ------------------------------------------------------------------
    # Views — the read path
    # ------------------------------------------------------------------
    def read_view(self) -> StoreView:
        """The frozen view at the current version, cached per version.

        At an unchanged version this is one comparison and takes no
        lock: a mutation still in flight has not bumped the version, so
        the cached view is still exact.  After a bump the lock is taken
        and a new view is frozen.
        """
        view = self._view
        if view._version == self._version:
            return view
        with self._lock:
            return self._view_locked()

    def _view_locked(self) -> StoreView:
        """View at the current version; caller holds the lock.

        O(series written since the last view): the last view's columns
        dict is copied and only the written columns are frozen anew (every
        other one is still its earlier :meth:`SeriesData.freeze` clone),
        in first-write order; their series are the view's write-log entry.
        The indexes are copied only when a series joined: series are
        never removed, so an equal count means equal sets.
        """
        old = self._view
        if old._version == self._version:
            return old
        columns = dict(old._columns)
        for column in self._written:
            columns[column.series] = column.freeze()
        log = old._log[1 - WRITE_LOG_VIEWS:] + (
            (old._version, tuple(column.series for column in self._written)),)
        self._written.clear()
        indexes = (old._by_name, old._by_tag, old._tag_values)
        if len(columns) != len(old._columns):
            indexes = tuple({key: set(ids) for key, ids in index.items()}
                            for index in self._indexes)
        span = None if self._min_ts is None else (self._min_ts, self._max_ts)
        self._view = StoreView(columns, *indexes, span, self._version, log)
        return self._view

    # ------------------------------------------------------------------
    # WAL lifecycle
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def checkpoint(self, path: str | Path) -> int:
        """Persist a consistent cut to ``path`` and truncate the WAL.

        Under the store's lock (so the log cannot advance) it writes the
        current view as a chunkfile recording the log's ``(generation,
        records)`` position, fsyncs and renames it over ``path``, and
        only then truncates the log.  ``open(wal_path, snapshot=path)``
        after a crash at any step replays exactly the records the
        snapshot on disk lacks.  Returns the snapshot's size in bytes.
        """
        from repro.tsdb.chunkfile import write_chunkfile
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with self._lock:
            covered = None
            if self._wal is not None:
                self._wal.flush()
                covered = self._wal.position
            n_bytes = write_chunkfile(self._view_locked(), tmp, covered)
            with tmp.open("rb") as handle:
                os.fsync(handle.fileno())
            replace_durably(tmp, path)
            if self._wal is not None:
                self._wal.truncate()
            return n_bytes

    def flush(self) -> None:
        """fsync any batched WAL records (no-op without a WAL)."""
        if self._wal is not None:
            self._wal.flush()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "TimeSeriesStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
