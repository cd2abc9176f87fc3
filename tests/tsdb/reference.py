"""Per-point reference implementations of the columnar fast paths.

These are the seed (pre-columnar) algorithms, kept verbatim as the
executable specification the vectorized tier is verified against: the
parity property tests assert the fast paths are *bitwise* identical to
these loops.  They are reference semantics, not production paths, so
they live with the tests.
"""

from __future__ import annotations

import numpy as np

from repro.tsdb.query import aggregator
from repro.tsdb.storage import StoreView


def naive_downsample(interval: int, agg: str, timestamps: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The seed ``Downsampler.apply``: a Python loop over bucket runs."""
    fn = aggregator(agg)
    if timestamps.size == 0:
        return timestamps.copy(), values.copy()
    buckets = (timestamps // interval) * interval
    out_ts: list[int] = []
    out_vals: list[float] = []
    start = 0
    for idx in range(1, buckets.size + 1):
        if idx == buckets.size or buckets[idx] != buckets[start]:
            out_ts.append(int(buckets[start]))
            out_vals.append(fn(values[start:idx]))
            start = idx
    return np.asarray(out_ts, dtype=np.int64), np.asarray(out_vals)


def naive_tsdb_table_rows(store: StoreView,
                          start: int | None = None,
                          end: int | None = None) -> list[tuple]:
    """The seed adapter: one Python tuple per observation + stable sort."""
    rows = []
    for series in store.series_ids():
        tags = series.tag_map()
        ts, values = store.arrays(series, start, end)
        name = series.name
        for t, v in zip(ts.tolist(), values.tolist()):
            rows.append((int(t), name, tags, float(v)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
