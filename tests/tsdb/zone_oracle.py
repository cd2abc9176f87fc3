"""The zone map of one chunk, computed the way the store computed it
when each chunk carried a ``ChunkStats`` object: the oracle the zone
columns (``SeriesData.zone_columns`` / ``chunk_stats``) are held to."""

import numpy as np

from repro.tsdb.model import ChunkStats, ColumnStats


def chunk_stats(start: int, ts: np.ndarray, vals: np.ndarray) -> ChunkStats:
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


def value_range_walk(view):
    """``StoreView.value_range`` as it walked per-chunk objects: the
    first of equal extremes (``0.0`` / ``-0.0``) wins."""
    lo = hi = None
    for column in view.read_view()._columns.values():
        for seg in column.chunk_stats():
            if seg.values.min is None:
                continue
            lo = seg.values.min if lo is None else min(lo, seg.values.min)
            hi = seg.values.max if hi is None else max(hi, seg.values.max)
    if lo is None or hi is None:
        return None
    return float(lo), float(hi)
