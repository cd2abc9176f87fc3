"""Per-point reference implementations of the columnar fast paths.

These are the seed (pre-columnar) algorithms, kept verbatim as the
executable specification the vectorized tier is verified against: the
parity property tests assert the fast paths are *bitwise* identical to
these loops.  They are reference semantics, not production paths, so
they live with the tests.
"""

from __future__ import annotations

from repro.tsdb.storage import StoreView


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
