"""The time series store: one mutable class, one frozen read view.

:class:`TimeSeriesStore` is the only mutable store.  Each series lives
on one of ``n_shards`` shards (a private :class:`_Shard`: chunked numpy
columns, inverted indexes on metric names and tags, time bounds and one
lock), so writers on different shards never contend.  **Routing** is
``crc32(str(series)) % n_shards`` — stable across processes, so a WAL
replays into the same placement anywhere — memoised per series on its
first write, so a point insert pays one dict lookup.

**Reads** are written once, on :class:`StoreView`: a store frozen at one
version (merged indexes plus :meth:`SeriesData.freeze` clones, which
copy chunk references, never data, and never reshape the source).  Each
read method starts from ``self.read_view()``: a view answers from
itself, the store from the view cached for its current version — one
lock-free version comparison while no writer lands.

**Versioning**: one monotonic count, the sum of per-shard counters, each
bumped under its shard's lock after the mutation (and its WAL record)
lands.  It also moves when ``apply`` rewrites values in place, so every
derived cache keys on it, never on ``num_points()``.

**Durability** is optional: with ``wal=`` every write is logged inside
its shard lock.  :meth:`TimeSeriesStore.checkpoint` writes a chunkfile
recording which WAL records it covers before truncating the log, and
:meth:`TimeSeriesStore.open` adopts its memmap'd columns and replays
only the rest, so a crash anywhere in a checkpoint recovers every
acknowledged write exactly once.
"""

from __future__ import annotations

import os
import threading
import weakref
import zlib
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from repro.tsdb.model import (
    ChunkStats,
    DataPoint,
    SeriesData,
    SeriesFormatError,
    SeriesId,
    series_sort_key,
)
from repro.tsdb.wal import WriteAheadLog, replace_durably

DEFAULT_SHARDS = 8
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


def shard_index(series: SeriesId, n_shards: int) -> int:
    """Deterministic shard routing: ``crc32`` of the canonical series text.

    ``str(series)`` renders the metric name plus the *sorted* tag pairs,
    so equal series ids land on the same shard regardless of tag
    insertion order, process, or interpreter hash seed.
    """
    return zlib.crc32(str(series).encode("utf-8")) % n_shards


class StoreView:
    """A read-only store at one version: frozen columns + merged indexes.

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
        extremes (``0.0`` and ``-0.0``) the first chunk's, in the view's
        column order, wins.
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


class _Shard:
    """One shard's write state: columns, inverted indexes, time bounds."""

    __slots__ = ("lock", "columns", "by_name", "by_tag", "tag_values",
                 "min_ts", "max_ts", "version", "written")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.columns: dict[SeriesId, SeriesData] = {}
        self.by_name: dict[str, set[SeriesId]] = defaultdict(set)
        self.by_tag: dict[tuple[str, str], set[SeriesId]] = defaultdict(set)
        #: tag key -> observed values, so ``tag_keys``/``tag_values``
        #: never scan every (key, value) pair.
        self.tag_values: dict[str, set[str]] = defaultdict(set)
        self.min_ts: int | None = None
        self.max_ts: int | None = None
        #: mutations landed on this shard; bumped under ``lock``.
        self.version = 0
        #: columns written since the store's last view was frozen, in
        #: first-write order (a dict used as an ordered set); added to
        #: under ``lock``, drained by the next view into its columns
        #: and its write log.
        self.written: dict[SeriesData, None] = {}

    def register(self, column: SeriesData) -> None:
        series = column.series
        self.columns[series] = column
        self.by_name[series.name].add(series)
        for key, value in series.tags:
            self.by_tag[(key, value)].add(series)
            self.tag_values[key].add(value)

    def observe(self, column: SeriesData) -> None:
        lo, hi = column.min_timestamp, column.max_timestamp
        if lo is None:
            return
        if self.min_ts is None or lo < self.min_ts:
            self.min_ts = lo
        if self.max_ts is None or hi > self.max_ts:
            self.max_ts = hi


class TimeSeriesStore(StoreView):
    """Hash-sharded, lock-per-shard store with frozen views and a WAL."""

    def __init__(self, n_shards: int = DEFAULT_SHARDS,
                 wal: str | Path | WriteAheadLog | None = None,
                 fsync_every: int = 64) -> None:
        if n_shards <= 0:
            raise SeriesFormatError("n_shards must be positive")
        self._shards = [_Shard() for _ in range(n_shards)]
        #: series -> (shard, column), filled on a series' first write.
        self._route: dict[SeriesId, tuple[_Shard, SeriesData]] = {}
        self._view = StoreView({}, {}, {}, {}, None, 0)
        if wal is None or isinstance(wal, WriteAheadLog):
            self._wal = wal
        else:
            self._wal = WriteAheadLog(wal, fsync_every=fsync_every)

    @classmethod
    def open(cls, wal_path: str | Path, n_shards: int = DEFAULT_SHARDS,
             fsync_every: int = 64,
             snapshot: str | Path | None = None) -> "TimeSeriesStore":
        """Open (or create) a WAL-backed store — the crash-recovery path.

        ``snapshot`` names a checkpoint chunkfile (see
        :meth:`checkpoint`); when it exists its memmap'd columns are
        adopted into their shards without a copy.  The WAL then replays
        every record the snapshot does not already cover, *before* the
        log is attached, so recovered records are not re-appended.  A
        missing snapshot file is not an error (no checkpoint has
        happened yet): recovery is then WAL-only.
        """
        from repro.tsdb.chunkfile import load_chunkfile
        store = cls(n_shards=n_shards)
        covered = None
        if snapshot is not None and Path(snapshot).exists():
            covered = load_chunkfile(store, snapshot)
        log = WriteAheadLog(wal_path, fsync_every=fsync_every)
        log.replay_into(store, covered)
        store._wal = log
        return store

    @classmethod
    def from_arrays(cls, series_arrays: Mapping[
            SeriesId, tuple[Iterable[int], Iterable[float]]],
            n_shards: int = DEFAULT_SHARDS) -> "TimeSeriesStore":
        """Build a store from ``{series: (timestamps, values)}`` columns,
        one bulk ``insert_array`` per series."""
        store = cls(n_shards=n_shards)
        for series, (timestamps, values) in series_arrays.items():
            store.insert_array(series, timestamps, values)
        return store

    @property
    def version(self) -> int:
        """Mutations so far: the sum of the per-shard counters.

        Read without locks.  Every counter only grows, so a sum equal to
        a view's (taken under every lock) means no shard has moved.
        """
        return sum(shard.version for shard in self._shards)

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
        for shard in self._shards:
            with shard.lock:
                sizes.append(sum(len(c) for c in shard.columns.values()))
        return sizes

    # ------------------------------------------------------------------
    # Ingest (one lock per shard; WAL + version bump inside the lock)
    # ------------------------------------------------------------------
    def insert(self, series: SeriesId, timestamp: int, value: float) -> None:
        """Insert one observation; timestamps per series must be sorted."""
        route = self._route.get(series)
        if route is None:
            self._first_write(series, [timestamp], [value],
                              lambda c: c.append(timestamp, value))
            return
        shard, column = route
        # acquire/release rather than ``with``: this is the per-point
        # hot path, and the context-manager protocol costs more than
        # the rest of the bookkeeping.
        shard.lock.acquire()
        try:
            column.append(timestamp, value)
            if timestamp > shard.max_ts:   # an existing series: min stays
                shard.max_ts = int(timestamp)
            shard.written[column] = None
            if self._wal is not None:
                self._wal.append_array(series, [timestamp], [value])
            shard.version += 1
        finally:
            shard.lock.release()

    def insert_point(self, point: DataPoint) -> None:
        """Insert a :class:`DataPoint`."""
        self.insert(point.series, point.timestamp, point.value)

    def insert_array(self, series: SeriesId, timestamps: Iterable[int],
                     values: Iterable[float]) -> None:
        """Bulk-insert one column pair as one sealed chunk.

        Validation and the zone-map seal run under the series' shard
        lock only; the batch is logged before the lock is released so
        log order matches per-series apply order.  Empty input is a
        no-op: nothing is logged or registered, the version stays.
        """
        ts = (timestamps if isinstance(timestamps, np.ndarray)
              else np.asarray(list(timestamps)))
        vals = (values if isinstance(values, np.ndarray)
                else np.asarray(list(values)))
        if ts.size == 0 and vals.size == 0:
            return
        route = self._route.get(series)
        if route is None:
            self._first_write(series, ts, vals, lambda c: c.extend(ts, vals))
            return
        shard, column = route
        with shard.lock:
            column.extend(ts, vals)
            self._commit(shard, column, ts, vals)

    def _first_write(self, series: SeriesId, ts, vals,
                     write: Callable[[SeriesData], object]) -> None:
        """A series' first write: the column registers only once
        ``write`` succeeded, and routing is memoised from then on."""
        shard = self._shards[shard_index(series, len(self._shards))]
        with shard.lock:
            column = shard.columns.get(series)   # another writer won
            if column is None:
                column = SeriesData(series=series)
                write(column)
                shard.register(column)
                self._route[series] = (shard, column)
            else:
                write(column)
            self._commit(shard, column, ts, vals)

    def _commit(self, shard: _Shard, column: SeriesData, ts, vals) -> None:
        """Bookkeeping after a landed write; caller holds ``shard.lock``."""
        shard.observe(column)
        shard.written[column] = None
        if self._wal is not None:
            self._wal.append_array(column.series, ts, vals)
        shard.version += 1

    def _adopt(self, column: SeriesData) -> None:
        """Register an already-built column without copying its data —
        the chunkfile load path; counts as one mutation."""
        shard = self._shards[shard_index(column.series, len(self._shards))]
        with shard.lock:
            shard.register(column)
            self._route[column.series] = (shard, column)
            shard.observe(column)
            shard.written[column] = None
            shard.version += 1

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
        route = self._route.get(series)
        if route is None:
            raise SeriesFormatError(f"unknown series: {series}")
        shard, column = route
        with shard.lock:
            ts, values = column.arrays()
            new_values = np.asarray(transform(ts, values.copy()),
                                    dtype=np.float64)
            if new_values.shape != values.shape:
                raise SeriesFormatError(
                    f"transform changed length of {series}: "
                    f"{values.shape} -> {new_values.shape}")
            column.replace_values(new_values)
            shard.written[column] = None
            shard.version += 1

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
        the cached view is still exact.  After a bump, every shard lock
        is taken and a new view is frozen from all shards.
        """
        view = self._view
        if view._version == self.version:
            return view
        with self._all_locks():
            return self._view_locked()

    @contextmanager
    def _all_locks(self) -> Iterator[None]:
        """Every shard lock, taken in index order (no writer holds more
        than its own shard's, so this cannot deadlock)."""
        for shard in self._shards:
            shard.lock.acquire()
        try:
            yield
        finally:
            for shard in reversed(self._shards):
                shard.lock.release()

    def _view_locked(self) -> StoreView:
        """View at the current version; caller holds every shard lock.

        The cost is O(series written since the last view): the last
        view's columns dict is copied and only the columns each shard
        recorded as written are frozen anew — every other column is
        still the clone :meth:`SeriesData.freeze` returned before — in
        shard order, then first-write order, so a view's column order
        is the same in every process.  The written series also become
        the new view's write-log entry.  The merged indexes are reused
        while no series has registered — series are never removed, so
        an equal count means equal sets.
        """
        old, version = self._view, self.version
        if old._version == version:
            return old
        columns = dict(old._columns)
        written = []
        for shard in self._shards:
            for column in shard.written:
                columns[column.series] = column.freeze()
                written.append(column.series)
            shard.written.clear()
        log = old._log[1 - WRITE_LOG_VIEWS:] + (
            (old._version, tuple(written)),)
        indexes = (old._by_name, old._by_tag, old._tag_values)
        if len(columns) != len(old._columns):
            indexes = self._merged_indexes()
        bounds = [(s.min_ts, s.max_ts) for s in self._shards
                  if s.min_ts is not None]
        span = (min(lo for lo, _ in bounds),
                max(hi for _, hi in bounds)) if bounds else None
        self._view = StoreView(columns, *indexes, span, version, log)
        return self._view

    def _merged_indexes(self) -> tuple[dict, dict, dict]:
        by_name: dict[str, set[SeriesId]] = defaultdict(set)
        by_tag: dict[tuple[str, str], set[SeriesId]] = defaultdict(set)
        tag_values: dict[str, set[str]] = defaultdict(set)
        for shard in self._shards:
            for name, ids in shard.by_name.items():
                by_name[name] |= ids
            for pair, ids in shard.by_tag.items():
                by_tag[pair] |= ids
            for key, values in shard.tag_values.items():
                tag_values[key] |= values
        return by_name, by_tag, tag_values

    # ------------------------------------------------------------------
    # WAL lifecycle
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def checkpoint(self, path: str | Path) -> int:
        """Persist a consistent cut to ``path`` and truncate the WAL.

        Under every shard lock (so the log cannot advance) it writes the
        current view as a chunkfile recording the log's ``(generation,
        records)`` position, fsyncs and renames it over ``path``, and
        only then truncates the log.  ``open(wal_path, snapshot=path)``
        after a crash at any step replays exactly the records the
        snapshot on disk lacks.  Returns the snapshot's size in bytes.
        """
        from repro.tsdb.chunkfile import write_chunkfile
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with self._all_locks():
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
