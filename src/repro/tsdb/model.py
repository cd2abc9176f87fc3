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
from typing import Iterable, Mapping

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
    independent of insertion order.
    """

    name: str
    tags: tuple[tuple[str, str], ...] = ()

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

#: Serialises the one-time tail seal of frozen clones (``_seal_tail``).
_TAIL_LOCK = threading.Lock()


@dataclass(frozen=True)
class ColumnStats:
    """Zone-map range of one column of one sealed chunk.

    ``min``/``max`` exclude nulls (NaN for the value column) and are
    ``None`` only when every cell is null; timestamps are int64 and
    never null.  The range is all a pruned scan reads.
    """

    min: int | float | None
    max: int | float | None

    def may_contain_range(self, lo: int | float | None,
                          hi: int | float | None) -> bool:
        """Can any non-null cell fall inside the closed range [lo, hi]?

        ``None`` bounds are open.  Conservative: ``True`` means the
        chunk must be scanned, ``False`` proves no row can match, so a
        pruned chunk never removes a row a WHERE would have kept.
        """
        if self.min is None:         # all cells null: no comparison matches
            return False
        if lo is not None and self.max < lo:
            return False
        if hi is not None and self.min > hi:
            return False
        return True


@dataclass(frozen=True)
class ChunkStats:
    """Zone map for one logical chunk: ``[start, end)`` row offsets into
    the series' consolidated columns, plus per-column ranges.

    Logical chunk boundaries are recorded when a chunk is sealed and are
    *kept* when :meth:`SeriesData.arrays` compacts physical storage into
    a single array pair — the offsets stay valid because compaction is a
    pure concatenation.  ``apply``-style value rewrites keep boundaries
    and recompute the value column's range in place.
    """

    start: int
    end: int
    timestamps: ColumnStats
    values: ColumnStats


def _chunk_stats(start: int, ts: np.ndarray, vals: np.ndarray) -> ChunkStats:
    """Compute the zone map of one sealed chunk (ts sorted, never null)."""
    present = vals
    if np.isnan(vals.min()):            # NaN propagates: drop the nulls
        present = vals[~np.isnan(vals)]
    val_stats = (ColumnStats(min=float(present.min()),
                             max=float(present.max()))
                 if present.size else ColumnStats(min=None, max=None))
    return ChunkStats(start=start, end=start + int(ts.size),
                      timestamps=ColumnStats(min=int(ts[0]), max=int(ts[-1])),
                      values=val_stats)


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

    Timestamps must be appended in non-decreasing order, which keeps the
    consolidated arrays sorted and makes min/max O(1) (first element of
    the first chunk, last element of the tail).

    ``timestamps`` / ``values`` are exposed as read-only numpy views of
    the consolidated arrays (the pre-columnar substrate exposed Python
    lists here).
    """

    __slots__ = ("series", "_chunk_ts", "_chunk_vals", "_buf_ts",
                 "_buf_vals", "_tail", "_frozen", "_length",
                 "_consolidated", "_segments")

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
        #: zone maps, one per sealed logical chunk; offsets tile
        #: [0, sealed length) and survive physical compaction.
        self._segments: list[ChunkStats] = []
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
                    values: np.ndarray,
                    segments: Iterable[ChunkStats]) -> "SeriesData":
        """Adopt pre-validated consolidated columns without re-sealing.

        The zero-parse load path (:mod:`repro.tsdb.chunkfile`) calls this
        with memmap-backed column views and the zone maps that were
        computed when the chunks were originally sealed, so nothing is
        copied, parsed, or recomputed.  Inputs are **trusted**:
        ``timestamps`` must be sorted int64, ``values`` float64 of equal
        length, and ``segments`` must tile ``[0, len)`` in order — the
        invariants :meth:`extend` enforces on the write path.
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
        column._segments = list(segments)
        return column

    def freeze(self) -> "SeriesData":
        """A read-only clone that leaves this column exactly as it is.

        O(chunks), and no column data moves: the clone copies the chunk
        *reference* lists and zone maps, and takes the append buffer by
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
        clone._segments = list(self._segments)
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
    def append(self, timestamp: int, value: float) -> None:
        """Append one point; timestamps must be non-decreasing."""
        timestamp = int(timestamp)
        buf = self._buf_ts
        last = buf[-1] if buf else self.max_timestamp
        if last is not None and timestamp < last:
            raise SeriesFormatError(
                f"out-of-order append to {self.series}: "
                f"{timestamp} < {last}"
            )
        buf.append(timestamp)
        self._buf_vals.append(float(value))
        self._length += 1
        self._consolidated = self._frozen = None
        if len(buf) >= CHUNK_TARGET:
            self._seal_buffer()

    def extend(self, timestamps: Iterable[int] | np.ndarray,
               values: Iterable[float] | np.ndarray) -> int:
        """Bulk-append a column pair as one sealed chunk.

        Monotonicity is checked vectorized; returns the number of points
        appended.
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
            bad = np.flatnonzero(ts[1:] < ts[:-1])
            if bad.size:
                i = int(bad[0]) + 1
                raise SeriesFormatError(
                    f"out-of-order append to {self.series}: "
                    f"{int(ts[i])} < {int(ts[i - 1])}"
                )
        self._seal_buffer()
        ts.flags.writeable = False
        vals.flags.writeable = False
        self._segments.append(_chunk_stats(self._sealed_length(), ts, vals))
        self._chunk_ts.append(ts)
        self._chunk_vals.append(vals)
        self._length += ts.size
        self._consolidated = self._frozen = None
        return int(ts.size)

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
        # range changes, so recompute each segment over the new column.
        self._segments = [
            _chunk_stats(seg.start, ts[seg.start:seg.end],
                         vals[seg.start:seg.end])
            for seg in self._segments
        ]

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
        self._segments.append(_chunk_stats(self._sealed_length(), ts, vals))
        self._chunk_ts.append(ts)
        self._chunk_vals.append(vals)

    def _sealed_length(self) -> int:
        """Number of points covered by sealed segments (tiling invariant)."""
        return self._segments[-1].end if self._segments else 0

    # ------------------------------------------------------------------
    # Zone maps + pruned reads
    # ------------------------------------------------------------------
    def chunk_stats(self) -> tuple[ChunkStats, ...]:
        """Zone maps, one per sealed logical chunk, covering every point.

        The append buffer is sealed first so the returned segments tile
        the whole series (reads already seal it — see :meth:`arrays`).
        Maintained incrementally: each chunk's ranges are computed
        once when it is sealed, survive physical compaction, and are
        recomputed per segment only when ``replace_values`` rewrites the
        value column.
        """
        self._seal_buffer()
        return tuple(self._segments)

    def _sealed_slice(self, start: int, end: int
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy views of sealed rows ``[start, end)``.

        A logical segment never straddles physical chunks — chunks are
        sealed exactly at segment boundaries and compaction concatenates
        whole segments — so the walk finds one containing chunk.
        """
        offset = 0
        for ts, vals in zip(self._chunk_ts, self._chunk_vals):
            if end <= offset + ts.size:
                lo = start - offset
                return ts[lo:end - offset], vals[lo:end - offset]
            offset += ts.size
        raise SeriesFormatError(
            f"segment [{start}, {end}) outside sealed storage of {self.series}"
        )

    def scan(self, start: int | None = None, end: int | None = None,
             value_lo: float | None = None, value_hi: float | None = None
             ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Zone-map-pruned read: ``(timestamps, values, scanned, pruned)``.

        Returns the concatenation of every chunk whose zone map can
        satisfy the time range ``[start, end)`` and the closed value
        range ``[value_lo, value_hi]`` (``None`` bounds are open), with
        boundary chunks clipped to the time range by ``searchsorted``.
        The result is a conservative *superset* of the matching rows —
        a value range keeps whole chunks — so callers re-apply their
        full predicate; pruned chunks are never read or consolidated.
        NaN values never satisfy a value comparison, which is why a
        chunk whose non-null range misses the query range may be pruned
        even when it holds NaNs.
        """
        self._seal_buffer()
        kept_ts: list[np.ndarray] = []
        kept_vals: list[np.ndarray] = []
        scanned = pruned = 0
        # An unconstrained value column keeps every chunk: an all-NaN
        # chunk satisfies no value *comparison* (so it may be pruned
        # under any bound), but its rows do appear in an unfiltered
        # read and must not vanish.
        has_value_bound = value_lo is not None or value_hi is not None
        for seg in self._segments:
            if not (seg.timestamps.may_contain_range(
                        start, end - 1 if end is not None else None)
                    and (not has_value_bound
                         or seg.values.may_contain_range(value_lo,
                                                         value_hi))):
                pruned += 1
                continue
            scanned += 1
            ts, vals = self._sealed_slice(seg.start, seg.end)
            if start is not None or end is not None:
                lo = int(np.searchsorted(ts, start, side="left")) \
                    if start is not None else 0
                hi = int(np.searchsorted(ts, end, side="left")) \
                    if end is not None else ts.size
                ts, vals = ts[lo:hi], vals[lo:hi]
            if ts.size:
                kept_ts.append(ts)
                kept_vals.append(vals)
        if not kept_ts:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64), scanned, pruned)
        if len(kept_ts) == 1:
            return kept_ts[0], kept_vals[0], scanned, pruned
        return (np.concatenate(kept_ts), np.concatenate(kept_vals),
                scanned, pruned)


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
