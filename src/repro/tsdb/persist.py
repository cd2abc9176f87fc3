"""Store persistence: text snapshots plus the zero-parse binary format.

Two formats share one entry point (:func:`save_store` /
:func:`read_store`):

- ``format="text"`` (default) — the ingest line protocol.  Human
  readable, bulk-loadable by any tsdb-protocol consumer, and the
  *compatibility oracle*: the binary path is tested against it.
- ``format="binary"`` — the memmap'd chunkfile
  (:mod:`repro.tsdb.chunkfile`): raw sealed columns + persisted zone
  maps, so a million-point store loads without parsing a single point.

:func:`read_store` sniffs the file's leading magic bytes, so loading
never needs to be told which format a snapshot used.

The text format groups multi-measurement series back into one line per
(timestamp, base metric, tag set) where possible; series whose names
carry no ``.measurement`` suffix serialise with a synthetic ``value``
measurement key.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.tsdb import chunkfile
from repro.tsdb.ingest import load_lines
from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.storage import StoreView, TimeSeriesStore

_SNAPSHOT_HEADER = "# repro-tsdb-snapshot v1"


def dump_store(store: StoreView, target: TextIO) -> int:
    """Write a snapshot; returns the number of lines written.

    The timestamp union across sibling measurements is computed with one
    ``np.unique`` over the concatenated timestamp arrays, and each
    measurement's points are merged into their output lines through a
    vectorized ``searchsorted`` instead of a per-point dict walk; only
    the value formatting itself touches Python per point.
    """
    target.write(_SNAPSHOT_HEADER + "\n")
    # Group series by (base name, tags) so sibling measurements share lines.
    grouped: dict[tuple[str, tuple], dict[str, SeriesId]] = {}
    for series in store.series_ids():
        base, _, measurement = series.name.rpartition(".")
        if not base:
            base, measurement = series.name, "value"
        grouped.setdefault((base, series.tags), {})[measurement] = series
    lines = 0
    for (base, tags), measurements in sorted(grouped.items()):
        tag_text = ",".join(f"{k}={v}" for k, v in tags)
        metric = f"{base}{{{tag_text}}}" if tag_text else base
        keys = sorted(measurements)
        columns = [store.arrays(measurements[key]) for key in keys]
        union_ts = np.unique(np.concatenate(
            [ts_arr for ts_arr, _ in columns])) if columns else \
            np.empty(0, dtype=np.int64)
        parts: list[list[str]] = [[] for _ in range(union_ts.size)]
        for key, (ts_arr, values) in zip(keys, columns):
            positions = np.searchsorted(union_ts, ts_arr).tolist()
            for pos, value in zip(positions, values.tolist()):
                parts[pos].append(f"{key}={value!r}")
        for t, cells in zip(union_ts.tolist(), parts):
            target.write(f"{t} {metric} {' '.join(cells)}\n")
            lines += 1
    return lines


def dumps_store(store: StoreView) -> str:
    """Snapshot to a string."""
    buffer = io.StringIO()
    dump_store(store, buffer)
    return buffer.getvalue()


def load_store(source: TextIO) -> TimeSeriesStore:
    """Rebuild a store from a snapshot (or any ingest-protocol text).

    The synthetic ``value`` measurement key added by :func:`dump_store`
    for suffix-less metrics is stripped again, so dump -> load is an
    identity on series names.
    """
    raw = TimeSeriesStore()
    load_lines(raw, source)
    store = TimeSeriesStore()
    for series in raw.series_ids():
        name = series.name
        if name.endswith(".value"):
            name = name[: -len(".value")]
        column = raw.get(series)
        store.insert_array(SeriesId.make(name, series.tag_map()),
                           column.timestamps, column.values)
    return store


def loads_store(text: str) -> TimeSeriesStore:
    """Rebuild a store from snapshot text."""
    return load_store(io.StringIO(text))


def save_store(store: StoreView, path: str | Path,
               format: str = "text") -> int:
    """Write a snapshot file in the chosen format.

    ``format="text"`` returns lines written; ``format="binary"`` writes
    a chunkfile and returns bytes written.  Either way the file is
    written from one frozen view, so it is one consistent cut.
    """
    path = Path(path)
    if format == "binary":
        return chunkfile.write_chunkfile(store, path)
    if format != "text":
        raise SeriesFormatError(
            f"unknown snapshot format {format!r}; use 'text' or 'binary'")
    with path.open("w", encoding="utf-8") as handle:
        return dump_store(store.read_view(), handle)


def read_store(path: str | Path) -> TimeSeriesStore:
    """Load a snapshot file, sniffing the format from its magic bytes."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(chunkfile.MAGIC))
    if magic == chunkfile.MAGIC:
        return chunkfile.read_chunkfile(path)
    with path.open("r", encoding="utf-8") as handle:
        return load_store(handle)
