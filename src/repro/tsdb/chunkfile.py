"""Memmap'd binary chunk format: zero-parse store save/load.

The text snapshot format (:mod:`repro.tsdb.persist`) re-parses every
point on load — fine as a compatibility oracle, hopeless for restarting
a store holding millions of points.  This module writes the *sealed*
representation directly: each series' consolidated int64/float64 columns
as raw little-endian blobs, plus the zone maps that were computed when
the chunks were sealed, so a load is ``np.memmap`` + a handful of array
views and the planner's statistics survive restart without touching a
single point.

File layout (all integers little-endian, blobs 8-byte aligned)::

    file      = MAGIC (8 bytes) | u64 dir_offset | u64 dir_len
              | blob*                  (raw column bytes, padded to 8)
              | directory              (UTF-8 JSON, at dir_offset)
    blob      = count * i64 timestamps | count * f64 values   (per series)
    directory = {"series": [{"name", "tags": [[k, v]...], "count",
                             "ts_offset", "vals_offset",
                             "segments": [chunk-stats...]}, ...],
                 "wal": [generation, records]}      (checkpoints only)

The directory is JSON because it is O(series + chunks) *metadata*, not
data — parsing it costs microseconds while the point columns, which are
O(points), are never parsed at all.  ``min``/``max`` floats round-trip
exactly through JSON (repr emits 17 significant digits); NaN never
appears (zone maps store ``None`` for all-null chunks and count NaNs in
``null_count``).

Loaded columns are read-only views into one shared ``np.memmap``; the
OS pages data in on first touch, so opening a multi-gigabyte snapshot
is O(directory) and a zone-map-pruned query only faults in the chunks
it actually scans.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.tsdb.model import (
    ChunkStats,
    ColumnStats,
    SeriesData,
    SeriesFormatError,
    SeriesId,
)
from repro.tsdb.storage import StoreView, TimeSeriesStore

MAGIC = b"RTSDBCF1"

_HEADER = struct.Struct("<QQ")           # directory offset, directory length
_HEADER_SIZE = len(MAGIC) + _HEADER.size  # 24 bytes — already 8-aligned


def _column_stats_to_json(stats: ColumnStats) -> dict:
    return {"min": stats.min, "max": stats.max,
            "null_count": stats.null_count, "distinct": stats.distinct}


def _column_stats_from_json(obj: dict) -> ColumnStats:
    return ColumnStats(min=obj["min"], max=obj["max"],
                       null_count=obj["null_count"],
                       distinct=obj["distinct"])


def serialize_segments(segments: Iterable[ChunkStats]) -> list[dict]:
    """Zone maps as JSON-ready dicts (exact float round-trip via repr)."""
    return [{"start": seg.start, "end": seg.end,
             "timestamps": _column_stats_to_json(seg.timestamps),
             "values": _column_stats_to_json(seg.values)}
            for seg in segments]


def deserialize_segments(objs: Sequence[dict]) -> list[ChunkStats]:
    """Rebuild zone maps from their JSON form — no points are touched."""
    return [ChunkStats(start=obj["start"], end=obj["end"],
                       timestamps=_column_stats_from_json(obj["timestamps"]),
                       values=_column_stats_from_json(obj["values"]))
            for obj in objs]


def write_chunkfile(store: StoreView, path: str | Path,
                    covered: tuple[int, int] | None = None) -> int:
    """Write a store's sealed columns as a binary chunkfile.

    Consolidates each series (one contiguous pair per series — the same
    compaction a read performs), streams the raw column bytes, then
    appends the JSON directory and backfills its offset in the header.
    Reads one frozen view, so the file is a consistent cut at one
    version.  ``covered`` is the WAL position the cut includes (see
    :meth:`~repro.tsdb.storage.TimeSeriesStore.checkpoint`).  Returns
    bytes written.
    """
    store = store.read_view()
    path = Path(path)
    directory: list[dict] = []
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(0, 0))  # backfilled after the directory
        offset = _HEADER_SIZE
        for series in store.series_ids():
            column = store.get(series)
            ts, vals = column.arrays()
            entry = {"name": series.name,
                     "tags": [list(pair) for pair in series.tags],
                     "count": int(ts.size),
                     "ts_offset": offset,
                     "vals_offset": offset + 8 * int(ts.size),
                     "segments": serialize_segments(column.chunk_stats())}
            handle.write(np.ascontiguousarray(ts, dtype="<i8").tobytes())
            handle.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())
            offset += 16 * int(ts.size)   # both blobs are 8-multiples
            directory.append(entry)
        meta: dict = {"series": directory}
        if covered is not None:
            meta["wal"] = list(covered)
        payload = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        handle.write(payload)
        handle.seek(len(MAGIC))
        handle.write(_HEADER.pack(offset, len(payload)))
        return offset + len(payload)


def read_chunkfile(path: str | Path) -> TimeSeriesStore:
    """Load a chunkfile into a new store with zero point parsing."""
    store = TimeSeriesStore()
    load_chunkfile(store, path)
    return store


def load_chunkfile(store: TimeSeriesStore, path: str | Path
                   ) -> tuple[int, int] | None:
    """Adopt a chunkfile's columns into ``store``; returns the WAL
    position the file covers (``None`` unless written by a checkpoint).

    Maps the file once, slices each series' columns as read-only
    ``int64``/``float64`` views of the map, and adopts them through
    :meth:`SeriesData.from_sealed` together with the persisted zone
    maps — no copy, no parse, no statistics recomputation.  The store's
    version moves once per series, as if each had been bulk-inserted.
    """
    path = Path(path)
    if path.stat().st_size < _HEADER_SIZE:
        raise SeriesFormatError(f"{path} is not a chunkfile: too short")
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    if mm[:len(MAGIC)].tobytes() != MAGIC:
        raise SeriesFormatError(f"{path} is not a chunkfile: bad magic")
    dir_offset, dir_len = _HEADER.unpack(
        mm[len(MAGIC):_HEADER_SIZE].tobytes())
    if dir_offset + dir_len > mm.size:
        raise SeriesFormatError(f"{path} is truncated: directory out of range")
    meta = json.loads(mm[dir_offset:dir_offset + dir_len].tobytes())
    for entry in meta["series"]:
        series = SeriesId(name=entry["name"],
                          tags=tuple(tuple(pair) for pair in entry["tags"]))
        count = entry["count"]
        ts_off, vals_off = entry["ts_offset"], entry["vals_offset"]
        if vals_off + 8 * count > dir_offset:
            raise SeriesFormatError(
                f"{path} is corrupt: {series} columns out of range")
        ts = mm[ts_off:ts_off + 8 * count].view("<i8")
        vals = mm[vals_off:vals_off + 8 * count].view("<f8")
        store._adopt(SeriesData.from_sealed(
            series, ts, vals, deserialize_segments(entry["segments"])))
    covered = meta.get("wal")
    return tuple(covered) if covered is not None else None
