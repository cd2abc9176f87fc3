"""Data model for the time series store.

A *metric* in the paper is a one-dimensional time series identified by a
metric name plus a set of key-value tags::

    timestamp=0
    flow{src=datanode-1, dest=datanode-2, srcport=100, destport=200}
    bytecount=1000

Multi-measurement observations (bytecount, packetcount, retransmits in one
event) are modelled as one series per measurement, which matches how
OpenTSDB flattens them.

Series columns are *chunked numpy* storage (:class:`SeriesData`): point
appends land in a small Python buffer that is sealed into immutable
int64/float64 chunks, bulk appends become one chunk per call, and reads
go through a cached consolidated view, so the ingest -> scan path never
converts Python lists point by point.  This is the storage half of the
paper's §4.2 "dense arrays" optimisation.
"""

from __future__ import annotations

import re
import threading
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np


_SERIES_EXPR_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][\w.\-/]*)\s*(?:\{(?P<tags>[^}]*)\})?\s*$"
)


class TsdbError(Exception):
    """Base error for the tsdb substrate."""


class SeriesFormatError(TsdbError):
    """Raised when a series expression or ingest line cannot be parsed."""


@dataclass(frozen=True)
class SeriesId:
    """Identity of a univariate series: metric name + sorted tag pairs.

    Instances are hashable so they can key dictionaries and sets; tags are
    stored as a sorted tuple of ``(key, value)`` pairs to make equality
    independent of insertion order.  The hash is computed once, at
    construction, and never pickled: string hashes are salted per
    process, so an unpickled id computes its own.
    """

    name: str
    tags: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.tags)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return SeriesId, (self.name, self.tags)

    @classmethod
    def make(cls, name: str, tags: Mapping[str, str] | None = None) -> "SeriesId":
        """Build a :class:`SeriesId` from a name and an optional tag mapping."""
        if not name:
            raise SeriesFormatError("metric name must be non-empty")
        pairs = tuple(sorted((str(k), str(v)) for k, v in (tags or {}).items()))
        return cls(name=name, tags=pairs)

    def tag_map(self) -> dict[str, str]:
        """Return the tags as a plain dictionary."""
        return dict(self.tags)

    def tag(self, key: str, default: str | None = None) -> str | None:
        """Return one tag value, or ``default`` when the key is absent."""
        for k, v in self.tags:
            if k == key:
                return v
        return default

    def with_tags(self, **extra: str) -> "SeriesId":
        """Return a copy with additional/overridden tags."""
        merged = self.tag_map()
        merged.update({k: str(v) for k, v in extra.items()})
        return SeriesId.make(self.name, merged)

    def matches(self, name: str | None = None,
                tags: Mapping[str, str] | None = None) -> bool:
        """Glob-style match against a name pattern and tag filters.

        ``*`` in either the name or a tag value matches any run of
        characters, mirroring the paper's ``disk{host=datanode*}`` grouping
        expressions (section 3.2).
        """
        if name is not None and not _glob_match(name, self.name):
            return False
        if tags:
            own = self.tag_map()
            for key, pattern in tags.items():
                value = own.get(key)
                if value is None or not _glob_match(str(pattern), value):
                    return False
        return True

    def __str__(self) -> str:
        if not self.tags:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.tags)
        return f"{self.name}{{{inner}}}"


@dataclass(frozen=True)
class DataPoint:
    """A single observation of a series at a timestamp (epoch minutes)."""

    series: SeriesId
    timestamp: int
    value: float

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise SeriesFormatError(
                f"timestamp must be non-negative, got {self.timestamp}"
            )


#: Point appends are buffered and sealed into a numpy chunk once the
#: buffer reaches this many points.  Small enough that a freshly written
#: tail stays cheap to consolidate, large enough that a million-point
#: per-point ingest produces only a few hundred chunks.
CHUNK_TARGET = 4096

#: A bulk write of fewer points than this is merged into the trailing
#: physical chunk while that holds fewer than :data:`CHUNK_TARGET`;
#: larger writes keep their own chunk, so bulk ingest copies nothing
#: twice.
SMALL_WRITE = CHUNK_TARGET // 16

#: Serialises the one-time tail seal of frozen clones (``_seal_tail``).
_TAIL_LOCK = threading.Lock()


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map range of one column of one sealed chunk.

    ``min``/``max`` exclude nulls (NaN for the value column) and are
    ``None`` only when every cell is null; timestamps are int64 and
    never null.  A pruned scan counts the chunks these ranges rule out.
    """

    min: int | float | None
    max: int | float | None


@dataclass(frozen=True)
class ChunkStats:
    """Zone map for one logical chunk: ``[start, end)`` row offsets into
    the series' consolidated columns, plus per-column ranges.

    Logical chunk boundaries are recorded when a chunk is sealed and are
    *kept* when :meth:`SeriesData.arrays` compacts physical storage into
    a single array pair — the offsets stay valid because compaction is a
    pure concatenation.  ``apply``-style value rewrites keep boundaries
    and recompute the value column's range.  The store keeps zone maps
    as columns (:meth:`SeriesData.zone_columns`); this is their
    per-chunk projection (:meth:`SeriesData.chunk_stats`).
    """

    start: int
    end: int
    timestamps: ColumnStats
    values: ColumnStats


#: Zone-map columns: per logical chunk, ``[start, end)`` row offsets and
#: the timestamp min/max (int64), and the value min/max (float64, NaN
#: when every value of the chunk is NaN).
ZONE_INTS = 4
ZONE_FLOATS = 2
_NO_ZONE_INTS = np.empty((0, ZONE_INTS), dtype=np.int64)
_NO_ZONE_FLOATS = np.empty((0, ZONE_FLOATS), dtype=np.float64)

#: What a write logs before it lands: ``(series, timestamps, values)``
#: (the store passes its WAL's ``append_array``).
WriteLog = Callable[["SeriesId", object, object], None]


def _value_range(vals: np.ndarray) -> tuple[float, float]:
    """(min, max) of a non-empty value column without its NaNs; both
    NaN when every value is.  Two reductions unless a NaN is present."""
    lo = vals.min()
    if lo != lo:                        # NaN propagates: drop the nulls
        vals = vals[~np.isnan(vals)]
        if not vals.size:
            return np.nan, np.nan
        lo = vals.min()
    return lo, vals.max()


class SeriesData:
    """Chunked columnar storage for one series.

    Layout:

    - ``_chunk_ts`` / ``_chunk_vals`` — sealed, immutable ``int64`` /
      ``float64`` chunk pairs in time order.
    - ``_buf_ts`` / ``_buf_vals`` — a small typed (``array.array``)
      append buffer for point-at-a-time ingest, sealed every
      :data:`CHUNK_TARGET` points.
    - a cached *consolidated view*: one contiguous ``(timestamps,
      values)`` array pair covering every chunk plus the buffer.  The
      first read after a mutation concatenates and **compacts** the
      chunks into that single pair, so repeated scans are O(1) and the
      data is never held twice.
    - ``_zone_ints`` / ``_zone_floats`` — the zone maps as two typed
      columns, one row per sealed logical chunk (see :data:`ZONE_INTS`),
      of which the first ``_n_zones`` rows are filled.  Rows are only
      ever appended, and a filled row is never written again: a write
      that outgrows the capacity and ``replace_values`` allocate anew,
      so frozen clones share the arrays instead of copying them.

    Timestamps must be appended in non-decreasing order, which keeps the
    consolidated arrays sorted and makes min/max O(1) (first element of
    the first chunk, last element of the tail).

    ``timestamps`` / ``values`` are exposed as read-only numpy views of
    the consolidated arrays (the pre-columnar substrate exposed Python
    lists here).
    """

    __slots__ = ("series", "_chunk_ts", "_chunk_vals", "_buf_ts",
                 "_buf_vals", "_tail", "_frozen", "_length",
                 "_consolidated", "_zone_ints", "_zone_floats", "_n_zones")

    def __init__(self, series: SeriesId,
                 timestamps: Iterable[int] | np.ndarray | None = None,
                 values: Iterable[float] | np.ndarray | None = None) -> None:
        self.series = series
        self._chunk_ts: list[np.ndarray] = []
        self._chunk_vals: list[np.ndarray] = []
        self._buf_ts = array("q")
        self._buf_vals = array("d")
        #: a frozen clone's unsealed share of its source's append buffer
        #: (see :meth:`freeze`); always ``None`` on a writable column.
        self._tail: tuple[array, array, int] | None = None
        #: the clone :meth:`freeze` returned, until the next write.
        self._frozen: SeriesData | None = None
        self._length = 0
        self._consolidated: tuple[np.ndarray, np.ndarray] | None = None
        #: zone maps, one row per sealed logical chunk; offsets tile
        #: [0, sealed length) and survive physical compaction.
        self._zone_ints = _NO_ZONE_INTS
        self._zone_floats = _NO_ZONE_FLOATS
        self._n_zones = 0
        if timestamps is not None or values is not None:
            self.extend(timestamps if timestamps is not None else (),
                        values if values is not None else ())

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return (f"SeriesData(series={self.series}, points={self._length}, "
                f"chunks={self.num_chunks})")

    # ------------------------------------------------------------------
    # Zero-copy construction / cloning
    # ------------------------------------------------------------------
    @classmethod
    def from_sealed(cls, series: SeriesId, timestamps: np.ndarray,
                    values: np.ndarray, zone_ints: np.ndarray,
                    zone_floats: np.ndarray) -> "SeriesData":
        """Adopt pre-validated consolidated columns without re-sealing.

        The zero-parse load path (:mod:`repro.tsdb.chunkfile`) calls this
        with memmap-backed column views and the zone-map columns that
        were computed when the chunks were originally sealed, so nothing
        is parsed or recomputed.  The zone columns are adopted as given
        (the column appends to them later, so the caller passes arrays
        it owns).  Inputs are **trusted**: ``timestamps`` must be sorted
        int64, ``values`` float64 of equal length, and the zone rows
        (``(n, ZONE_INTS)`` int64, ``(n, ZONE_FLOATS)`` float64) must
        tile ``[0, len)`` in order — the invariants :meth:`extend`
        enforces on the write path.
        """
        column = cls(series=series)
        ts = np.asarray(timestamps)
        vals = np.asarray(values)
        ts.flags.writeable = False
        vals.flags.writeable = False
        if ts.size:
            column._chunk_ts = [ts]
            column._chunk_vals = [vals]
        column._length = int(ts.size)
        column._consolidated = (ts, vals)
        column._zone_ints = zone_ints
        column._zone_floats = zone_floats
        column._n_zones = len(zone_ints)
        return column

    def freeze(self) -> "SeriesData":
        """A read-only clone that leaves this column exactly as it is.

        O(chunks), and no column data moves: the clone copies the chunk
        *reference* lists, shares the zone-map columns up to their
        current row count, and takes the append buffer by
        reference together with its current length.  The source only
        ever appends to its buffer arrays or replaces them wholesale, so
        the first ``n`` entries the clone saw never change; the clone
        seals them into its own last chunk on its first read.  Reads
        never reshape the source — its chunk layout is decided by writes
        alone — and nothing the source does afterwards can change what
        the clone returns.  This is the storage primitive behind
        :class:`~repro.tsdb.storage.StoreView`.

        A clone supports every read and introspection method, never a
        write.  Until the source's next write, every call returns the
        same clone.
        """
        clone = self._frozen
        if clone is not None:
            return clone
        self._own_tail()            # on a clone: its borrowed tail first
        clone = SeriesData.__new__(SeriesData)
        clone.series = self.series
        clone._chunk_ts = list(self._chunk_ts)
        clone._chunk_vals = list(self._chunk_vals)
        clone._buf_ts = clone._buf_vals = ()       # clones never append
        clone._tail = ((self._buf_ts, self._buf_vals, len(self._buf_ts))
                       if self._buf_ts else None)
        clone._frozen = None        # never ``clone``: a cycle defers freeing
        clone._length = self._length
        clone._consolidated = self._consolidated
        clone._zone_ints = self._zone_ints
        clone._zone_floats = self._zone_floats
        clone._n_zones = self._n_zones
        self._frozen = clone
        return clone

    # ------------------------------------------------------------------
    # O(1) introspection
    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """Sealed chunks plus the live append buffer (if non-empty)."""
        self._own_tail()
        return len(self._chunk_ts) + (1 if self._buf_ts else 0)

    @property
    def min_timestamp(self) -> int | None:
        """Earliest timestamp, or ``None`` when empty.  O(1)."""
        self._own_tail()
        if self._chunk_ts:
            return int(self._chunk_ts[0][0])
        if self._buf_ts:
            return self._buf_ts[0]
        return None

    @property
    def max_timestamp(self) -> int | None:
        """Latest timestamp, or ``None`` when empty.  O(1)."""
        self._own_tail()
        if self._buf_ts:
            return self._buf_ts[-1]
        if self._chunk_ts:
            return int(self._chunk_ts[-1][-1])
        return None

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only consolidated int64 timestamp column."""
        return self.arrays()[0]

    @property
    def values(self) -> np.ndarray:
        """Read-only consolidated float64 value column."""
        return self.arrays()[1]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, timestamp: int, value: float,
               log: WriteLog | None = None) -> None:
        """Append one point; timestamps must be non-decreasing.

        ``log``, when given, is called as ``log(series, [timestamp],
        [value])`` once the point is validated and before the column
        changes, so a log that raises leaves the column as it was.
        """
        timestamp = int(timestamp)
        buf = self._buf_ts
        last = buf[-1] if buf else self.max_timestamp
        if last is not None and timestamp < last:
            raise SeriesFormatError(
                f"out-of-order append to {self.series}: "
                f"{timestamp} < {last}"
            )
        if log is not None:
            log(self.series, [timestamp], [value])
        buf.append(timestamp)
        self._buf_vals.append(float(value))
        self._length += 1
        self._consolidated = self._frozen = None
        if len(buf) >= CHUNK_TARGET:
            self._seal_buffer()

    def extend(self, timestamps: Iterable[int] | np.ndarray,
               values: Iterable[float] | np.ndarray,
               log: WriteLog | None = None) -> int:
        """Bulk-append a column pair as one sealed logical chunk.

        Monotonicity is checked vectorized; returns the number of points
        appended.  ``log`` is called as in :meth:`append`, with the
        validated int64 / float64 columns, before the column changes.
        The chunk gets its own zone map; when it holds fewer than
        :data:`SMALL_WRITE` points and the trailing physical chunk
        fewer than :data:`CHUNK_TARGET`, the two are merged into one
        fresh array (clones keep the old one), so many small writes
        leave few physical chunks for every frozen clone to copy and
        concatenate.
        """
        ts = (timestamps if isinstance(timestamps, np.ndarray)
              else np.asarray(list(timestamps)))
        vals = (values if isinstance(values, np.ndarray)
                else np.asarray(list(values)))
        if ts.shape != vals.shape or ts.ndim != 1:
            raise SeriesFormatError(
                f"timestamps ({ts.size}) and values ({vals.size}) "
                f"must have equal length for {self.series}"
            )
        if ts.size == 0:
            return 0
        ts = ts.astype(np.int64)         # always copies: chunks own their data
        vals = vals.astype(np.float64)
        last = self.max_timestamp
        if last is not None and ts[0] < last:
            raise SeriesFormatError(
                f"out-of-order append to {self.series}: "
                f"{int(ts[0])} < {last}"
            )
        if ts.size > 1:
            bad = ts[1:] < ts[:-1]
            if bad.any():
                i = int(bad.argmax()) + 1
                raise SeriesFormatError(
                    f"out-of-order append to {self.series}: "
                    f"{int(ts[i])} < {int(ts[i - 1])}"
                )
        if log is not None:
            log(self.series, ts, vals)
        n = int(ts.size)
        self._seal_buffer()
        self._length += n
        self._push_zone(ts, vals)
        if n < SMALL_WRITE and self._chunk_ts \
                and self._chunk_ts[-1].size < CHUNK_TARGET:
            ts = np.concatenate((self._chunk_ts.pop(), ts))
            vals = np.concatenate((self._chunk_vals.pop(), vals))
        ts.flags.writeable = False
        vals.flags.writeable = False
        self._chunk_ts.append(ts)
        self._chunk_vals.append(vals)
        self._consolidated = self._frozen = None
        return n

    def replace_values(self, new_values: np.ndarray) -> None:
        """Swap the value column (same length) — the fault-overlay path."""
        new_values = np.asarray(new_values, dtype=np.float64)
        if new_values.shape != (self._length,):
            raise SeriesFormatError(
                f"replacement column for {self.series} has shape "
                f"{new_values.shape}, expected ({self._length},)"
            )
        ts, _ = self.arrays()            # consolidates + compacts timestamps
        vals = new_values.copy()
        vals.flags.writeable = False
        self._chunk_ts = [ts] if ts.size else []
        self._chunk_vals = [vals] if vals.size else []
        self._buf_ts = array("q")
        self._buf_vals = array("d")
        self._consolidated = (ts, vals)
        self._frozen = None
        # Chunk boundaries survive the rewrite; only the value column's
        # range changes, so recompute it per chunk into a fresh column
        # (clones still read the old one).
        n = self._n_zones
        floats = np.empty_like(self._zone_floats)      # same capacity
        for row, (start, end) in enumerate(
                self._zone_ints[:n, :2].tolist()):
            floats[row] = _value_range(vals[start:end])
        self._zone_floats = floats

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached consolidated ``(timestamps, values)`` view.

        The first call after a mutation concatenates chunks + buffer and
        compacts storage down to the single consolidated pair; further
        calls return the same read-only arrays without copying.
        """
        if self._consolidated is None:
            self._seal_buffer()
            if not self._chunk_ts:
                ts = np.empty(0, dtype=np.int64)
                vals = np.empty(0, dtype=np.float64)
            elif len(self._chunk_ts) == 1:
                ts, vals = self._chunk_ts[0], self._chunk_vals[0]
            else:
                ts = np.concatenate(self._chunk_ts)
                vals = np.concatenate(self._chunk_vals)
            ts.flags.writeable = False
            vals.flags.writeable = False
            self._chunk_ts = [ts] if ts.size else []
            self._chunk_vals = [vals] if vals.size else []
            self._consolidated = (ts, vals)
        return self._consolidated

    def _own_tail(self) -> None:
        """On a frozen clone, seal the source-buffer share it still
        borrows (see :meth:`freeze`); a no-op on a writable column."""
        if self._tail is not None:
            self._seal_tail()

    def _seal_buffer(self) -> None:
        self._own_tail()
        if self._buf_ts:
            self._seal(self._buf_ts, self._buf_vals)
            self._buf_ts = array("q")       # the sealed chunk views the old
            self._buf_vals = array("d")

    def _seal_tail(self) -> None:
        """Seal a frozen clone's share of the source buffer, exactly once.

        Concurrent readers of one clone race here, so the seal and the
        reset of ``_tail`` happen under one lock; a reader that sees
        ``_tail`` cleared also sees the sealed chunk.
        """
        with _TAIL_LOCK:
            if self._tail is None:
                return
            ts, vals, n = self._tail
            self._grow_zones()      # the zone rows past ours are the source's
            self._seal(ts[:n], vals[:n])
            self._tail = None

    def _seal(self, ts_buf: array, vals_buf: array) -> None:
        """Append buffered points as one sealed chunk with its zone map.

        The chunk views the buffers' memory, so they must never change
        again: callers pass a fresh slice or drop the buffer afterwards.
        """
        ts = np.frombuffer(ts_buf, dtype=np.int64)
        vals = np.frombuffer(vals_buf, dtype=np.float64)
        ts.flags.writeable = False
        vals.flags.writeable = False
        self._push_zone(ts, vals)
        self._chunk_ts.append(ts)
        self._chunk_vals.append(vals)

    def _push_zone(self, ts: np.ndarray, vals: np.ndarray) -> None:
        """Append the zone row of the chunk that ends the sealed points
        (``_length`` already counts it; ``ts`` sorted, never empty)."""
        n = self._n_zones
        if n == len(self._zone_ints):
            self._grow_zones()
        end = self._length
        self._zone_ints[n] = (end - ts.size, end, ts[0], ts[-1])
        self._zone_floats[n] = _value_range(vals)
        self._n_zones = n + 1

    def _grow_zones(self) -> None:
        """Move the filled zone rows into fresh, larger arrays."""
        n = self._n_zones
        ints = np.empty((max(8, 2 * n), ZONE_INTS), dtype=np.int64)
        floats = np.empty((len(ints), ZONE_FLOATS), dtype=np.float64)
        ints[:n] = self._zone_ints[:n]
        floats[:n] = self._zone_floats[:n]
        self._zone_ints, self._zone_floats = ints, floats

    # ------------------------------------------------------------------
    # Zone maps
    # ------------------------------------------------------------------
    def zone_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The zone maps as read-only columns, one row per sealed logical
        chunk, covering every point: ``(n, ZONE_INTS)`` int64 start,
        end, timestamp min and max, and ``(n, ZONE_FLOATS)`` float64
        value min and max (NaN for an all-NaN chunk).

        The append buffer is sealed first so the rows tile the whole
        series (reads already seal it — see :meth:`arrays`).  Maintained
        incrementally: each chunk's row is written once when it is
        sealed, survives physical compaction, and its value range is
        recomputed only when ``replace_values`` rewrites the value
        column.
        """
        self._seal_buffer()
        ints = self._zone_ints[:self._n_zones]
        floats = self._zone_floats[:self._n_zones]
        ints.flags.writeable = False
        floats.flags.writeable = False
        return ints, floats

    def chunk_stats(self) -> tuple[ChunkStats, ...]:
        """:meth:`zone_columns` as one :class:`ChunkStats` per chunk."""
        ints, floats = self.zone_columns()
        return tuple(
            ChunkStats(start, end, ColumnStats(ts_min, ts_max),
                       ColumnStats(lo, hi) if lo == lo
                       else ColumnStats(None, None))
            for (start, end, ts_min, ts_max), (lo, hi)
            in zip(ints.tolist(), floats.tolist()))

    def chunks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The physical chunk arrays, timestamps and values, in time
        order — every point, without consolidating them."""
        self._seal_buffer()
        return list(self._chunk_ts), list(self._chunk_vals)


def parse_series_expr(expr: str) -> tuple[str, dict[str, str]]:
    """Parse ``name{key=value,...}`` into ``(name, tags)``.

    >>> parse_series_expr("disk{host=datanode-1, type=read_latency}")
    ('disk', {'host': 'datanode-1', 'type': 'read_latency'})
    >>> parse_series_expr("runtime")
    ('runtime', {})
    """
    match = _SERIES_EXPR_RE.match(expr)
    if match is None:
        raise SeriesFormatError(f"cannot parse series expression: {expr!r}")
    name = match.group("name")
    raw_tags = match.group("tags")
    tags: dict[str, str] = {}
    if raw_tags:
        for part in raw_tags.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SeriesFormatError(
                    f"tag {part!r} in {expr!r} is not key=value"
                )
            key, _, value = part.partition("=")
            tags[key.strip()] = value.strip()
    return name, tags


def _glob_match(pattern: str, value: str) -> bool:
    """Match ``value`` against a glob ``pattern`` where ``*`` is a wildcard."""
    if "*" not in pattern:
        return pattern == value
    regex = "^" + ".*".join(re.escape(p) for p in pattern.split("*")) + "$"
    return re.match(regex, value) is not None


def series_sort_key(series: SeriesId) -> tuple:
    """Stable ordering used by scans: by name, then tag pairs."""
    return (series.name, series.tags)


def group_key_by_name(series: SeriesId) -> str:
    """Grouping key used for the paper's default name-based families."""
    return series.name


def group_key_by_tag(key: str):
    """Return a grouping function keyed on one tag (``host`` etc.).

    Series missing the tag fall into the ``"NULL"`` family, mirroring the
    ``*{host=NULL}`` family in section 3.2.
    """
    def _key(series: SeriesId) -> str:
        return series.tag(key) or "NULL"
    return _key


def unique_names(series: Iterable[SeriesId]) -> list[str]:
    """Sorted list of distinct metric names in a collection of series."""
    return sorted({s.name for s in series})
