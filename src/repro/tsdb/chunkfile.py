"""Memmap'd binary chunk format: zero-parse store save/load.

The text snapshot format (:mod:`repro.tsdb.persist`) re-parses every
point on load — fine as a compatibility oracle, hopeless for restarting
a store holding millions of points.  This module writes the *sealed*
representation directly: each series' int64/float64 columns as raw
little-endian blobs, plus the zone-map columns that were filled when the
chunks were sealed, so a load is ``np.memmap`` + a handful of array
views and one small copy of the zone columns per series, and the zone
maps survive restart without touching a single point.

File layout (all integers little-endian, blobs 8-byte aligned)::

    file      = MAGIC (8 bytes) | u64 dir_offset | u64 dir_len
              | columns*               (one per series, in series order)
              | zones*                 (one per series, in series order)
              | directory              (UTF-8 JSON, at dir_offset)
    columns   = count * i64 timestamps | count * f64 values
    zones     = n_zones * (i64 start, end, ts_min, ts_max)
              | n_zones * (f64 value_min, value_max)    (NaN: all null)
    directory = {"series": [{"name", "tags": [[k, v]...], "count",
                             "ts_offset", "vals_offset",
                             "zones_offset", "zones"}, ...],
                 "wal": [generation, records]}      (checkpoints only)

The directory is JSON because it is O(series) *metadata*, not data —
parsing it costs microseconds while the point columns and the zone
columns are never parsed at all.  Files written before the zone columns
existed carry each series' zone maps as a JSON ``segments`` list instead
of ``zones_offset``/``zones`` (``min``/``max`` per column, ``None`` for
an all-null chunk, extra ``null_count``/``distinct`` keys ignored); they
still load, through :func:`deserialize_segments`.

Loaded columns are read-only views into one shared ``np.memmap``; the
OS pages data in on first touch, so opening a multi-gigabyte snapshot
is O(directory + chunks) and a zone-map-pruned query only faults in the
chunks it actually scans.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.tsdb.model import (
    ZONE_FLOATS,
    ZONE_INTS,
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
_ZONE_BYTES = 8 * (ZONE_INTS + ZONE_FLOATS)


def deserialize_segments(objs: Sequence[dict]) -> list[ChunkStats]:
    """Rebuild zone maps from the JSON ``segments`` of an older file."""
    return [ChunkStats(start=obj["start"], end=obj["end"],
                       timestamps=ColumnStats(obj["timestamps"]["min"],
                                              obj["timestamps"]["max"]),
                       values=ColumnStats(obj["values"]["min"],
                                          obj["values"]["max"]))
            for obj in objs]


def _zones_from_segments(segments: Sequence[ChunkStats]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Zone-map rows of :class:`ChunkStats` (NaN for ``None`` ranges)."""
    ints = np.array([(seg.start, seg.end, seg.timestamps.min,
                      seg.timestamps.max) for seg in segments],
                    dtype=np.int64).reshape(-1, ZONE_INTS)
    floats = np.array([(np.nan, np.nan) if seg.values.min is None
                       else (seg.values.min, seg.values.max)
                       for seg in segments],
                      dtype=np.float64).reshape(-1, ZONE_FLOATS)
    return ints, floats


#: Buffers per ``os.writev`` call: ``IOV_MAX`` on Linux and macOS.
_IOV_MAX = 1024


def _bytes(array: np.ndarray, dtype: str) -> memoryview:
    """An array's bytes as ``dtype``, without a copy when it already is
    contiguous little-endian."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype)).cast("B")


def _write_all(fd: int, buffers: list[memoryview]) -> None:
    """Write ``buffers`` back to back, ``_IOV_MAX`` per system call."""
    for first in range(0, len(buffers), _IOV_MAX):
        batch = buffers[first:first + _IOV_MAX]
        written = os.writev(fd, batch)
        for buf in batch:             # finish a short write, if any
            if written >= len(buf):
                written -= len(buf)
                continue
            buf, written = buf[written:], 0
            while buf:
                buf = buf[os.write(fd, buf):]


def write_chunkfile(store: StoreView, path: str | Path,
                    covered: tuple[int, int] | None = None) -> int:
    """Write a store's sealed columns as a binary chunkfile.

    Lays out the file first — each series' physical chunks straight
    from the frozen view (no consolidating concatenate, no intermediate
    bytes), then every series' zone columns, then the JSON directory —
    and writes it with a few vectored system calls.  Reads one frozen
    view, so the file is a consistent cut at one version.  ``covered``
    is the WAL position the cut includes (see
    :meth:`~repro.tsdb.storage.TimeSeriesStore.checkpoint`).  Returns
    bytes written.
    """
    store = store.read_view()
    columns = store.get_many(store.series_ids())
    buffers: list[memoryview] = []
    directory: list[dict] = []
    offset = _HEADER_SIZE
    for column in columns:
        ts_chunks, val_chunks = column.chunks()
        entry = {"name": column.series.name,
                 "tags": [list(pair) for pair in column.series.tags],
                 "count": len(column), "ts_offset": offset}
        offset += 8 * len(column)
        entry["vals_offset"] = offset
        offset += 8 * len(column)
        buffers += [_bytes(chunk, "<i8") for chunk in ts_chunks]
        buffers += [_bytes(chunk, "<f8") for chunk in val_chunks]
        directory.append(entry)
    for column, entry in zip(columns, directory):
        ints, floats = column.zone_columns()
        entry["zones_offset"], entry["zones"] = offset, len(ints)
        buffers += [_bytes(ints, "<i8"), _bytes(floats, "<f8")]
        offset += _ZONE_BYTES * len(ints)
    meta: dict = {"series": directory}
    if covered is not None:
        meta["wal"] = list(covered)
    payload = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    header = MAGIC + _HEADER.pack(offset, len(payload))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, [memoryview(header), *buffers, memoryview(payload)])
    finally:
        os.close(fd)
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
    ``int64``/``float64`` views of the map, copies its zone columns out
    of the map (one bounds-checked copy per series: the column appends
    to them later) and adopts both through
    :meth:`SeriesData.from_sealed` — no parse, no statistics
    recomputation.  The store's version moves once per series, as if
    each had been bulk-inserted.
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
        if "segments" in entry:
            zones = _zones_from_segments(
                deserialize_segments(entry["segments"]))
        else:
            zones = _zone_section(mm, entry["zones_offset"], entry["zones"],
                                  dir_offset)
            if zones is None:
                raise SeriesFormatError(
                    f"{path} is corrupt: {series} zone maps out of range")
        store._adopt(SeriesData.from_sealed(series, ts, vals, *zones))
    covered = meta.get("wal")
    return tuple(covered) if covered is not None else None


def _zone_section(mm: np.ndarray, offset: int, n_zones: int,
                  dir_offset: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A series' zone columns, copied out of the map once; ``None`` when
    the section does not lie in the blob area ``[header, directory)``."""
    end = offset + _ZONE_BYTES * n_zones
    if offset < _HEADER_SIZE or n_zones < 0 or end > dir_offset:
        return None
    section = np.array(mm[offset:end])
    split = 8 * ZONE_INTS * n_zones
    return (section[:split].view("<i8").reshape(n_zones, ZONE_INTS),
            section[split:].view("<f8").reshape(n_zones, ZONE_FLOATS))
