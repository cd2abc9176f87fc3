"""Expose a :class:`TimeSeriesStore` as the paper's relational ``tsdb`` table.

Appendix C's listings query a table with the schema::

    tsdb(timestamp: int, metric_name: string, tag: map<string,string>,
         value: double)

one row per observation.  :func:`tsdb_table` materialises that table from a
store; :func:`register_store` attaches it to a :class:`~repro.sql.Database`
as a lazy provider keyed on the store's mutation version, so the
conversion happens on first query and refreshes only when the store
actually changes.

Materialisation is columnar: the per-series consolidated numpy columns
are concatenated, ordered with one ``lexsort`` over ``(timestamp,
metric-name rank)``, and handed to :meth:`Table.from_columns` — no
per-observation Python tuple is built unless a row-oriented consumer
asks for ``.rows``.  Row ordering and cell values are identical to the
historical per-point explosion (a stable sort by ``(timestamp,
metric_name)`` over series in ``series_ids()`` order).

The column vectors built here are what the columnar SQL executor
(:mod:`repro.sql.columnar`) consumes directly: ``timestamp``/``value``
stay int64/float64 so WHERE predicates over them compile to numpy
masks and GROUP BY aggregates run as segmented reductions;
``metric_name`` and ``tag`` — constants of the series a row came from —
are :class:`~repro.sql.table.DictColumn` vectors sharing one int32
series-index code vector, so the executor evaluates ``tag['k']``,
string predicates and GROUP BY keys once per *series* and gathers by
code.  That is the ingest→query path's end-to-end columnar story — at
no point between ``insert_array`` and an aggregate query result does a
per-observation Python object exist.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.sql.scan import ScanPredicate, ScanReport
from repro.sql.stats import ColumnSummary, TableStats
from repro.sql.table import DictColumn, Table
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import StoreView

TSDB_COLUMNS = ["timestamp", "metric_name", "tag", "value"]


def observations_to_table(
        items: Iterable[tuple[SeriesId, np.ndarray, np.ndarray]]) -> Table:
    """Build the ``(timestamp, metric_name, tag, value)`` table columnar.

    ``items`` yields per-series ``(series, timestamps, values)`` column
    triples; the result is ordered by ``(timestamp, metric_name)`` with
    ties keeping the input series order (the ordering the row-explode
    path produced with a stable Python sort).  Each series' rows share
    one tag dict, as before.
    """
    ts_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    names: list[str] = []
    tags: list[dict] = []
    for series, ts, vals in items:
        if ts.size == 0:
            continue
        ts_parts.append(ts)
        val_parts.append(vals)
        names.append(series.name)
        tags.append(series.tag_map())
    if not ts_parts:
        return Table(TSDB_COLUMNS, [])
    ts_all = np.concatenate(ts_parts)
    val_all = np.concatenate(val_parts)
    lengths = [ts.size for ts in ts_parts]
    # Rank metric names so the secondary sort key is an int column; the
    # ranks order exactly like the strings they stand for.
    name_rank = {name: i for i, name in enumerate(sorted(set(names)))}
    ranks = np.repeat(
        np.asarray([name_rank[name] for name in names], dtype=np.int64),
        lengths)
    order = np.lexsort((ranks, ts_all))   # primary ts, secondary name; stable
    # metric_name and tag are per-series constants: one series-index
    # code per row, and the per-series cells as the two dictionaries.
    series_of_row = np.repeat(
        np.arange(len(names), dtype=np.int32), lengths)[order]
    return Table.from_columns(
        TSDB_COLUMNS,
        [ts_all[order],
         DictColumn(series_of_row, np.array(names, dtype=object)),
         DictColumn(series_of_row, np.array(tags, dtype=object)),
         val_all[order]])


def tsdb_table(store: StoreView,
               start: int | None = None,
               end: int | None = None) -> Table:
    """Materialise the relational view of a store (optionally time-clipped)."""
    return observations_to_table(store.iter_arrays(start=start, end=end))


def scan_store(store: StoreView, predicate: ScanPredicate
               ) -> tuple[Table, ScanReport]:
    """Pruned materialisation of the ``tsdb`` table under a predicate.

    Three pruning levels, all conservative (the result is a superset of
    the rows the full WHERE keeps, in exactly the order the unpruned
    table would present them, so re-filtering gives bitwise-identical
    results):

    - **series**, via the store's inverted indexes: an exact
      ``metric_name = '...'`` or ``tag['key'] = '...'`` constraint
      restricts the scan to the matching series set;
    - **chunks**, via zone maps: sealed chunks whose time or value range
      cannot intersect the predicate are skipped without being read;
    - **rows**, via ``searchsorted``: surviving boundary chunks are
      clipped exactly to the time range.

    Constraints on columns the provider cannot act on are ignored.
    Ordering is preserved because the ``(timestamp, metric_name)``
    lexsort in :func:`observations_to_table` is stable and subset-stable
    — dropping rows never reorders the survivors.
    """
    name = None
    tags: dict[str, str] = {}
    impossible = False
    for column, value in predicate.equals:
        if column == "metric_name":
            if isinstance(value, str):
                if name is not None and value != name:
                    impossible = True
                name = value
            else:
                impossible = True        # metric_name = non-string: no rows
    for column, key, value in predicate.map_equals:
        if column == "tag" and isinstance(value, str):
            if key in tags and tags[key] != value:
                impossible = True
            tags[key] = value
    start, end = _time_window(predicate)
    value_lo, value_hi = predicate.range_for("value")

    series_total = len(store)
    if impossible:
        kept: list[SeriesId] = []
    elif name is not None or tags:
        kept = store.find_exact(name, tags)
    else:
        kept = store.series_ids()
    chunks_scanned = chunks_pruned = 0
    triples = []
    for series in kept:
        ts, vals, scanned, pruned = store.scan_arrays(
            series, start, end, value_lo, value_hi)
        chunks_scanned += scanned
        chunks_pruned += pruned
        if ts.size:
            triples.append((series, ts, vals))
    table = observations_to_table(triples)
    report = ScanReport(rows=len(table), series_total=series_total,
                        series_scanned=len(kept),
                        chunks_scanned=chunks_scanned,
                        chunks_pruned=chunks_pruned)
    return table, report


def _time_window(predicate: ScanPredicate) -> tuple[int | None, int | None]:
    """The predicate's closed timestamp interval as a half-open int window.

    Timestamps are integral, so closed ``[lo, hi]`` becomes
    ``[ceil(lo), floor(hi) + 1)`` — exact for int literals, conservative
    for float ones.
    """
    lo, hi = predicate.range_for("timestamp")
    start = None if lo is None else int(math.ceil(lo))
    end = None if hi is None else int(math.floor(hi)) + 1
    return start, end


def store_stats(store: StoreView) -> TableStats:
    """Planner statistics for the ``tsdb`` table, without materialising it.

    Row count and the timestamp range are O(1); the value range is a
    zone-map union (O(chunks)); distinct counts for ``timestamp`` and
    ``value`` sum per-chunk exact counts, an over-estimate whenever
    chunks share values (the documented "cheap distinct estimate").
    """
    rows = store.num_points()
    names = store.metric_names()
    ts_min = ts_max = None
    ts_distinct = val_distinct = val_nulls = 0
    if rows:
        ts_min, ts_max = store.time_range()
    val_lo = val_hi = None
    #: points carrying each tag key — tags are per-series constants, so
    #: one len() per series prices every tag['key'] virtual column.
    key_points: dict[str, int] = {}
    for series in store.series_ids():
        n = len(store.get(series))
        for key, _ in series.tags:
            key_points[key] = key_points.get(key, 0) + n
        for seg in store.chunk_stats(series):
            ts_distinct += seg.timestamps.distinct
            val_distinct += seg.values.distinct
            val_nulls += seg.values.null_count
            if seg.values.min is not None:
                val_lo = (seg.values.min if val_lo is None
                          else min(val_lo, seg.values.min))
                val_hi = (seg.values.max if val_hi is None
                          else max(val_hi, seg.values.max))
    columns = (
        ("timestamp", ColumnSummary(min=ts_min, max=ts_max, null_count=0,
                                    distinct=min(ts_distinct, rows) or None)),
        ("metric_name", ColumnSummary(
            min=names[0] if names else None,
            max=names[-1] if names else None,
            null_count=0, distinct=len(names) or None)),
        ("tag", ColumnSummary(null_count=0)),
        ("value", ColumnSummary(min=val_lo, max=val_hi,
                                distinct=min(val_distinct, rows) or None,
                                null_count=val_nulls)),
    )
    # Virtual tag['key'] columns: distinct values straight from the
    # inverted index (exact, unlike the summed chunk estimates), null
    # count = rows whose series lacks the key — what IS NULL selects.
    map_columns = []
    for key in store.tag_keys():
        values = store.tag_values(key)
        map_columns.append((("tag", key), ColumnSummary(
            min=values[0] if values else None,
            max=values[-1] if values else None,
            null_count=rows - key_points.get(key, 0),
            distinct=len(values) or None)))
    return TableStats(rows=rows, columns=columns,
                      map_columns=tuple(map_columns))


def register_store(db, store: StoreView, name: str = "tsdb") -> None:
    """Register a store on a Database as a lazily-materialised table.

    The provider is keyed on ``store.version``: the table materialises
    on first query and re-materialises only after the store mutates
    (including in-place ``apply`` fault overlays, which leave
    ``num_points()`` unchanged).  Time-range / metric / tag / value
    predicates are pushed into the store scan (:func:`scan_store`) and
    the planner reads zone-map statistics (:func:`store_stats`) instead
    of materialising.

    Every provider callback reads from one ``store.read_view()`` taken
    at entry, so a multi-series scan never straddles a version change
    mid-walk.
    """
    db.register_scannable_provider(
        name,
        provider=lambda: tsdb_table(store.read_view()),
        version_fn=lambda: store.version,
        scan_fn=lambda predicate: scan_store(store.read_view(), predicate),
        stats_fn=lambda: store_stats(store.read_view()),
    )
