"""Columnar in-memory time series store with inverted tag indexes.

The store keeps one chunked numpy column pair (timestamps, values) per
series (:class:`~repro.tsdb.model.SeriesData`) and maintains inverted
indexes — metric name -> series ids, ``(tag key, tag value)`` -> series
ids, and tag key -> observed values — so that scans touch only matching
series and tag enumeration is a dict lookup.  This mirrors how OpenTSDB
resolves a metric + tag filter to a set of row keys before reading data.

Reads go through each series' cached consolidated view: ``arrays()``
returns read-only slices located with ``searchsorted`` instead of
rebuilding ndarrays from Python lists per call, and bulk ingest
(``insert_array``/``merge``) lands whole numpy chunks in one operation.

Every mutation bumps a monotonic :attr:`TimeSeriesStore.version`; rollup
views, lazy SQL providers and any other derived cache key their
freshness on it.  Unlike ``num_points()``, the version also moves when
``apply`` rewrites values in place (fault injection), so value-mutating
transforms invalidate caches correctly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.tsdb.model import (
    ChunkStats,
    DataPoint,
    SeriesData,
    SeriesFormatError,
    SeriesId,
    series_sort_key,
)


class TimeSeriesStore:
    """Mutable collection of time series with index-accelerated scans."""

    @classmethod
    def from_arrays(cls, series_arrays: Mapping[
            SeriesId, tuple[Iterable[int], Iterable[float]]]
    ) -> "TimeSeriesStore":
        """Build a store from ``{series: (timestamps, values)}`` columns.

        Every series lands through the bulk ``insert_array`` fast path —
        the canonical way workload generators load simulated traces.
        """
        store = cls()
        for series, (timestamps, values) in series_arrays.items():
            store.insert_array(series, timestamps, values)
        return store

    def __init__(self) -> None:
        self._data: dict[SeriesId, SeriesData] = {}
        self._by_name: dict[str, set[SeriesId]] = defaultdict(set)
        self._by_tag: dict[tuple[str, str], set[SeriesId]] = defaultdict(set)
        #: secondary index: tag key -> set of observed values, so
        #: ``tag_keys``/``tag_values`` never scan every (key, value) pair.
        self._tag_values: dict[str, set[str]] = defaultdict(set)
        self._version = 0
        self._min_ts: int | None = None
        self._max_ts: int | None = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def insert(self, series: SeriesId, timestamp: int, value: float) -> None:
        """Insert one observation; timestamps per series must be sorted."""
        column = self._data.get(series)
        if column is None:
            column = self._register(series)
        column.append(timestamp, value)
        self._observe(int(timestamp))
        self._version += 1

    def insert_point(self, point: DataPoint) -> None:
        """Insert a :class:`DataPoint`."""
        self.insert(point.series, point.timestamp, point.value)

    def insert_array(self, series: SeriesId, timestamps: Iterable[int],
                     values: Iterable[float]) -> None:
        """Bulk-insert a whole column pair for one series.

        This is the columnar fast path: the pair is validated and sealed
        as one numpy chunk instead of being appended point by point.
        Empty input is a no-op (the series is not registered).
        """
        column = self._data.get(series)
        fresh = column is None
        if fresh:
            column = SeriesData(series=series)
        appended = column.extend(timestamps, values)
        if appended == 0:
            return
        if fresh:
            self._data[series] = column
            self._index(series)
        self._observe(column.min_timestamp, column.max_timestamp)
        self._version += 1

    def _register(self, series: SeriesId) -> SeriesData:
        column = SeriesData(series=series)
        self._data[series] = column
        self._index(series)
        return column

    def _adopt_column(self, column: SeriesData) -> None:
        """Register an already-built column without copying its data.

        Internal fast path for the binary load
        (:mod:`repro.tsdb.chunkfile`): the column's invariants are
        trusted and :attr:`version` is *not* bumped — the caller decides
        what version the assembled store carries.
        """
        self._data[column.series] = column
        self._index(column.series)
        self._observe(column.min_timestamp, column.max_timestamp)

    def _index(self, series: SeriesId) -> None:
        self._by_name[series.name].add(series)
        for key, value in series.tags:
            self._by_tag[(key, value)].add(series)
            self._tag_values[key].add(value)

    def _observe(self, lo: int | None, hi: int | None = None) -> None:
        if lo is None:
            return
        hi = lo if hi is None else hi
        if self._min_ts is None or lo < self._min_ts:
            self._min_ts = int(lo)
        if self._max_ts is None or hi > self._max_ts:
            self._max_ts = int(hi)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, series: SeriesId) -> bool:
        return series in self._data

    @property
    def version(self) -> int:
        """Monotonic mutation counter — the cache-coherence contract.

        Bumped by every ``insert``/``insert_array``/``apply``/``merge``
        call that changes stored data.  Any value derived from the
        store (rollup tables, the lazy ``tsdb`` SQL provider via
        :meth:`~repro.sql.catalog.Database.register_versioned_provider`,
        score matrices, …) belongs in a
        :class:`~repro.versioned.VersionedCache` keyed on it; never key
        on ``num_points()``, which misses in-place ``apply`` rewrites
        (fault injection).  Reading the version never mutates state, and
        equal versions guarantee identical store contents.
        """
        return self._version

    def num_points(self) -> int:
        """Total number of stored observations across all series."""
        return sum(len(col) for col in self._data.values())

    def series_ids(self) -> list[SeriesId]:
        """All series ids in a stable order."""
        return sorted(self._data, key=series_sort_key)

    def metric_names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted(self._by_name)

    def tag_keys(self) -> list[str]:
        """Sorted distinct tag keys seen across all series."""
        return sorted(self._tag_values)

    def tag_values(self, key: str) -> list[str]:
        """Sorted distinct values observed for one tag key."""
        return sorted(self._tag_values.get(key, ()))

    def time_range(self) -> tuple[int, int]:
        """(min, max) timestamp over the whole store, in O(1).

        Maintained incrementally at ingest time from each series' O(1)
        min/max, so no column is scanned.  Raises
        :class:`SeriesFormatError` on an empty store so callers never
        silently operate on a sentinel range.
        """
        if self._min_ts is None or self._max_ts is None:
            raise SeriesFormatError("store is empty; no time range")
        return self._min_ts, self._max_ts

    def chunk_stats(self, series: SeriesId) -> tuple[ChunkStats, ...]:
        """Per-sealed-chunk zone maps for one series (see
        :meth:`SeriesData.chunk_stats`).  Like every derived view, cache
        results keyed on :attr:`version`."""
        return self.get(series).chunk_stats()

    def value_range(self) -> tuple[float, float] | None:
        """(min, max) over all non-NaN values, from zone maps only.

        O(total chunks), touching no data column.  ``None`` when the
        store holds no non-NaN value.
        """
        lo = hi = None
        for column in self._data.values():
            for seg in column.chunk_stats():
                if seg.values.min is None:
                    continue
                lo = seg.values.min if lo is None else min(lo, seg.values.min)
                hi = seg.values.max if hi is None else max(hi, seg.values.max)
        if lo is None or hi is None:
            return None
        return float(lo), float(hi)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def find(self, name: str | None = None,
             tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        """Return series matching a name glob and tag-value globs.

        The indexes are consulted for exact (non-glob) terms; glob terms
        fall back to a filtered walk of the candidate set.
        """
        candidates = self._candidates(name, tags)
        return sorted(
            (s for s in candidates if s.matches(name, tags)),
            key=series_sort_key,
        )

    def _candidates(self, name: str | None,
                    tags: Mapping[str, str] | None) -> set[SeriesId]:
        sets: list[set[SeriesId]] = []
        if name is not None and "*" not in name:
            sets.append(self._by_name.get(name, set()))
        if tags:
            for key, value in tags.items():
                if "*" not in str(value):
                    sets.append(self._by_tag.get((key, str(value)), set()))
        if not sets:
            return set(self._data)
        smallest = min(sets, key=len)
        result = set(smallest)
        for other in sets:
            if other is not smallest:
                result &= other
        return result

    def get(self, series: SeriesId) -> SeriesData:
        """Return the chunked column pair for a series id."""
        try:
            return self._data[series]
        except KeyError:
            raise SeriesFormatError(f"unknown series: {series}") from None

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
        ts, values = self.get(series).arrays()
        if start is not None or end is not None:
            lo = int(np.searchsorted(ts, start, side="left")) \
                if start is not None else 0
            hi = int(np.searchsorted(ts, end, side="left")) \
                if end is not None else ts.size
            ts, values = ts[lo:hi], values[lo:hi]
        return ts, values

    def find_exact(self, name: str | None = None,
                   tags: Mapping[str, str] | None = None) -> list[SeriesId]:
        """Series matching a name and tag values *literally* (no globs).

        The predicate-pushdown path uses this instead of :meth:`find`
        because SQL equality must not glob-expand a ``*`` inside a
        string literal.  Pure index intersection: never walks all
        series when any exact term is given.
        """
        sets: list[set[SeriesId]] = []
        if name is not None:
            sets.append(self._by_name.get(name, set()))
        for key, value in (tags or {}).items():
            sets.append(self._by_tag.get((key, str(value)), set()))
        if not sets:
            return self.series_ids()
        result = set(min(sets, key=len))
        for other in sets:
            result &= other
        return sorted(result, key=series_sort_key)

    def scan_arrays(self, series: SeriesId,
                    start: int | None = None, end: int | None = None,
                    value_lo: float | None = None,
                    value_hi: float | None = None
                    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Zone-map-pruned ``(timestamps, values, scanned, pruned)`` read.

        Delegates to :meth:`SeriesData.scan`: sealed chunks whose zone
        map cannot satisfy the time range ``[start, end)`` or the closed
        value range are skipped without being read or consolidated; the
        result is a conservative superset of the matching rows.
        """
        return self.get(series).scan(start, end, value_lo, value_hi)

    def iter_arrays(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None,
                    end: int | None = None
                    ) -> Iterator[tuple[SeriesId, np.ndarray, np.ndarray]]:
        """Yield ``(series, timestamps, values)`` column triples.

        The bulk read path: one cached-view slice per series, no
        per-point object allocation.  Prefer this over
        :meth:`iter_points` wherever whole columns are consumed.
        """
        ids = list(series_ids) if series_ids is not None else self.series_ids()
        for series in ids:
            ts, values = self.arrays(series, start, end)
            yield series, ts, values

    def iter_points(self, series_ids: Iterable[SeriesId] | None = None,
                    start: int | None = None,
                    end: int | None = None) -> Iterator[DataPoint]:
        """Yield data points across series, in per-series time order.

        Streams from the cached consolidated views; each yielded point
        is still one :class:`DataPoint` (the point-at-a-time API) — use
        :meth:`iter_arrays` for allocation-free bulk consumption.
        """
        for series, ts, values in self.iter_arrays(series_ids, start, end):
            for t, v in zip(ts.tolist(), values.tolist()):
                yield DataPoint(series=series, timestamp=t, value=v)

    # ------------------------------------------------------------------
    # Mutation helpers used by the fault-injection workloads
    # ------------------------------------------------------------------
    def apply(self, series: SeriesId,
              transform: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Replace a series' values with ``transform(timestamps, values)``.

        The transform must return an array of the same length; this is how
        fault injectors overlay faults on clean generated traces.  The
        transform receives a writable copy of the values (the stored
        column is immutable), and the swap bumps :attr:`version` so
        caches keyed on it refresh even though ``num_points()`` is
        unchanged.
        """
        column = self.get(series)
        ts, values = column.arrays()
        new_values = np.asarray(transform(ts, values.copy()),
                                dtype=np.float64)
        if new_values.shape != values.shape:
            raise SeriesFormatError(
                f"transform changed length of {series}: "
                f"{values.shape} -> {new_values.shape}"
            )
        column.replace_values(new_values)
        self._version += 1

    def merge(self, other: "TimeSeriesStore") -> None:
        """Merge another store's contents into this one.

        Each incoming series lands as one bulk chunk via the
        ``insert_array`` fast path.
        """
        for series, ts, values in other.iter_arrays():
            self.insert_array(series, ts, values)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def read_view(self) -> "TimeSeriesStore":
        """The store a multi-call read should run against: this one.

        Callers serialise mutations on the plain store themselves, so
        reading in place is consistent and free; the sharded store
        answers the same call with its per-version :meth:`snapshot`.
        """
        return self

    def snapshot(self) -> "TimeSeriesStore":
        """A read-stable copy sharing sealed chunk storage with this store.

        O(series + chunks): every column is cloned with
        :meth:`SeriesData.freeze` (chunk *references*, never data) and
        the inverted indexes are shallow-copied.  The snapshot carries
        the same :attr:`version` and identical bytes; because sealed
        chunks are immutable and every mutation on the source allocates
        new arrays, nothing the source does afterwards can change what
        the snapshot reads — two snapshots taken at equal versions are
        bitwise-identical.  The snapshot is itself an ordinary store
        (mutating it only diverges the copy).

        Not safe against *concurrent* mutation of this store — the
        sharded tier takes its per-shard locks around the freeze.
        """
        snap = TimeSeriesStore()
        self._freeze_into(snap)
        snap._version = self._version
        return snap

    def _freeze_into(self, snap: "TimeSeriesStore") -> None:
        """Merge frozen clones of every column, and the indexes, into ``snap``.

        The one freeze routine: :meth:`snapshot` and the sharded tier
        (once per shard, into one merged store) both call it; the
        caller stamps the version the assembled snapshot carries.
        """
        for series, column in self._data.items():
            snap._data[series] = column.freeze()
        for name, ids in self._by_name.items():
            snap._by_name[name] |= ids
        for pair, ids in self._by_tag.items():
            snap._by_tag[pair] |= ids
        for key, values in self._tag_values.items():
            snap._tag_values[key] |= values
        snap._observe(self._min_ts, self._max_ts)
