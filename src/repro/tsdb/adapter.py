"""Expose a :class:`TimeSeriesStore` as the paper's relational ``tsdb`` table.

Appendix C's listings query a table with the schema::

    tsdb(timestamp: int, metric_name: string, tag: map<string,string>,
         value: double)

one row per observation.  :func:`tsdb_table` is that table for one
frozen :class:`StoreView`; :func:`register_store` attaches it to a
:class:`~repro.sql.Database` as a lazy provider keyed on the store's
mutation version, so the conversion happens on first query and
refreshes only when the store actually changes.

Materialisation is columnar: the per-series consolidated numpy columns
are concatenated, ordered with one ``lexsort`` over ``(timestamp,
metric-name rank)``, and handed to :meth:`Table.from_columns` — no
per-observation Python tuple is built unless a row-oriented consumer
asks for ``.rows``.  Row ordering and cell values are identical to the
historical per-point explosion (a stable sort by ``(timestamp,
metric_name)`` over series in ``series_ids()`` order).  A view builds
it once (:meth:`StoreView.derived`), with each series' row positions in
it, and every pruned scan of the view selects rows of it: no scan sorts
the table (a grouped scan reads a clustered copy built once per view).
A later view of the same series set patches an earlier view's instead
of sorting again: only the written series' rows are merged in.

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
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.sql.scan import ScanGroups, ScanPredicate, ScanReport
from repro.sql.table import DictColumn, Table
from repro.tsdb.model import ZONE_FLOATS, ZONE_INTS, SeriesId
from repro.tsdb.storage import StoreView

TSDB_COLUMNS = ["timestamp", "metric_name", "tag", "value"]

_INT64 = np.iinfo(np.int64)


def _sorted_table(items: list[tuple[SeriesId, np.ndarray, np.ndarray]]
                  ) -> tuple[Table, np.ndarray]:
    """The table of non-empty ``items`` and its sort permutation of their
    concatenated rows."""
    if not items:
        return Table(TSDB_COLUMNS, []), np.empty(0, dtype=np.intp)
    ts_all = np.concatenate([ts for _, ts, _ in items])
    val_all = np.concatenate([vals for _, _, vals in items])
    lengths = [ts.size for _, ts, _ in items]
    names = [series.name for series, _, _ in items]
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
    tags = [series.tag_map() for series, _, _ in items]
    return Table.from_columns(
        TSDB_COLUMNS,
        [ts_all[order],
         DictColumn(series_of_row, np.array(names, dtype=object)),
         DictColumn(series_of_row, np.array(tags, dtype=object)),
         val_all[order]]), order


@dataclass(frozen=True)
class _Index:
    """A view's table and its sorted timestamp column; per series with
    rows, its dictionary code and its own timestamps; every series' row
    positions in the table, ascending per series and concatenated in
    code order, and where each series' share of them ends; per sealed
    chunk, its series code and its zone map as int64 timestamp and
    float64 value min/max (NaN when all are)."""

    table: Table
    timestamps: np.ndarray
    series: dict[SeriesId, tuple[int, np.ndarray]]
    zones: tuple[np.ndarray, ...]
    positions: np.ndarray
    ends: np.ndarray

    def rows(self, code: int, timestamps: np.ndarray) -> np.ndarray:
        """The row positions of the series with ``code`` and
        ``timestamps``."""
        end = self.ends[code]
        return self.positions[end - timestamps.size:end]


def _build_index(view: StoreView) -> _Index:
    """The view's index: patched from an earlier view's when one is kept
    and only its written series changed (:func:`_patched_index`), else
    built from every column."""
    earlier = view.derived_before(_build_index)
    if earlier is not None:
        index = _patched_index(view, *earlier)
        if index is not None:
            return index
    items = [item for item in view.iter_arrays() if item[1].size]
    table, order = _sorted_table(items)
    # Each series' rows are the inverse permutation at its input offsets.
    position = np.empty(order.size, dtype=np.intp)
    position[order] = np.arange(order.size, dtype=np.intp)
    ends = np.cumsum([ts.size for _, ts, _ in items], dtype=np.intp)
    zones = [view.get(series).zone_columns() for series, _, _ in items]
    ints, floats = (map(np.concatenate, zip(*zones)) if zones else
                    (np.empty((0, ZONE_INTS), np.int64),
                     np.empty((0, ZONE_FLOATS))))
    zone_series = np.repeat(np.arange(len(zones), dtype=np.intp),
                            [len(z_ints) for z_ints, _ in zones])
    return _Index(
        table, position[:0] if not items else table.column_vectors()[0],
        {series: (code, ts) for code, (series, ts, _) in enumerate(items)},
        (zone_series, ints[:, 2], ints[:, 3], floats[:, 0], floats[:, 1]),
        position, ends)


def _patched_index(view: StoreView, old: _Index,
                   written: set[SeriesId]) -> _Index | None:
    """``view``'s index derived from ``old``, an earlier view's of the
    same series set, when only ``written`` changed since — equal, field
    for field, to the one built from every column.

    A written series' rows past its old ones are merged in at their
    ``(timestamp, code)`` places (codes order like the metric-name
    ranks the table is sorted by, and like series within a name), after
    the old rows of their own series at an equal timestamp; its value
    rows are all rewritten (``apply`` changes old ones), and its zone
    rows replaced.  Every other series keeps its timestamps and zone
    rows, and its positions shift by the rows merged in before them.
    ``old`` is only read: requests pinned to its view still use it.
    ``None`` when a written series had no rows before, or lost or
    changed any of them.
    """
    changed = []
    for series in written:
        entry = old.series.get(series)
        if entry is None:
            return None
        code, before = entry
        ts, values = view.arrays(series)
        if ts.size < before.size \
                or not np.array_equal(ts[:before.size], before):
            return None
        changed.append((code, series, before.size, ts, values))
    changed.sort(key=lambda item: item[0])
    old_ts, names, tags, old_values = old.table.column_vectors()
    grown = [ts.size - n for _, _, n, ts, _ in changed]
    new_ts = np.concatenate([ts[n:] for _, _, n, ts, _ in changed]
                            or [old_ts[:0]])
    written_codes = np.asarray([item[0] for item in changed],
                               dtype=np.intp)
    new_codes = np.repeat(written_codes, grown)
    order = np.lexsort((new_codes, new_ts))     # stable: in-series order
    merged = _merge_positions(old_ts, names.codes, new_ts[order],
                              new_codes[order], len(old.series))
    # Old rows move down by the new rows merged in before them.
    shift = np.repeat(np.arange(merged.size + 1,
                                dtype=np.min_scalar_type(merged.size)),
                      np.diff(merged, prepend=0, append=old_ts.size))
    merged += np.arange(merged.size)            # their rows in the result
    size = old_ts.size + merged.size
    kept = np.ones(size, dtype=bool)
    kept[merged] = False
    timestamps = np.empty(size, dtype=np.int64)
    timestamps[kept] = old_ts
    timestamps[merged] = new_ts[order]
    codes = np.empty(size, dtype=names.codes.dtype)
    codes[kept] = names.codes
    codes[merged] = new_codes[order]
    values = np.empty(size, dtype=np.float64)
    values[kept] = old_values
    # Each written series' new rows, in its order, go after its old ones.
    appended = np.empty_like(merged)
    appended[order] = merged
    shifted = old.positions + shift[old.positions]
    pieces, src = [], 0
    for code, rows in zip(written_codes.tolist(),
                          np.split(appended, np.cumsum(grown)[:-1])):
        end = old.ends[code]
        pieces += (shifted[src:end], rows)
        src = end
    positions = np.concatenate(pieces + [shifted[src:]])
    growth = np.zeros(len(old.series), dtype=np.intp)
    growth[written_codes] = grown
    ends = old.ends + np.cumsum(growth)
    series = dict(old.series)
    zones = [[] for _ in old.zones]
    done = 0
    for code, name, _, ts, vals in changed:
        series[name] = (code, ts)
        values[positions[ends[code] - ts.size:ends[code]]] = vals
        lo, hi = np.searchsorted(old.zones[0], [code, code + 1])
        ints, floats = view.get(name).zone_columns()
        fresh = (np.full(len(ints), code, dtype=np.intp), ints[:, 2],
                 ints[:, 3], floats[:, 0], floats[:, 1])
        for parts, column, part in zip(zones, old.zones, fresh):
            parts += (column[done:lo], part)
        done = hi
    table = Table.from_columns(
        TSDB_COLUMNS, [timestamps, DictColumn(codes, names.values),
                       DictColumn(codes, tags.values), values])
    return _Index(table, timestamps, series,
                  tuple(np.concatenate(parts + [column[done:]])
                        for parts, column in zip(zones, old.zones)),
                  positions, ends)


def _merge_positions(timestamps: np.ndarray, codes: np.ndarray,
                     new_ts: np.ndarray, new_codes: np.ndarray,
                     n_codes: int) -> np.ndarray:
    """For rows ``(new_ts, new_codes)`` sorted by ``(timestamp, code)``,
    the number of rows of a table sorted that way (``timestamps``,
    ``codes``) that sort at or before each — where each goes.

    Two ``searchsorted`` probes: on the timestamps, then, over the
    table rows whose timestamps the new ones span, on ``(timestamp
    block, code)`` keys that sort like the rows.
    """
    lo = np.searchsorted(timestamps, new_ts)
    if not new_ts.size:
        return lo
    first = int(lo[0])
    region = timestamps[first:np.searchsorted(timestamps, new_ts[-1],
                                              side="right")]
    if not region.size:
        return lo
    block = np.zeros(region.size, dtype=np.int64)
    np.cumsum(region[1:] != region[:-1], out=block[1:])
    keys = block * n_codes + codes[first:first + region.size]
    at = np.minimum(lo - first, region.size - 1)
    present = (lo - first < region.size) & (region[at] == new_ts)
    probes = block[at] * n_codes + new_codes
    return np.where(present,
                    first + np.searchsorted(keys, probes, side="right"),
                    lo)


@dataclass(frozen=True)
class SeriesFilter:
    """The series a pruned scan read: those named ``name`` (any name
    when ``None``) carrying every ``tags`` pair — what
    :meth:`StoreView.find_exact` matched, and would match of a series
    that joins later.  Called on a written series, it tells whether a
    result of the scan read it (:attr:`ScanReport.reads`)."""

    name: str | None
    tags: tuple[tuple[str, str], ...]

    def __call__(self, series: SeriesId) -> bool:
        return (self.name is None or series.name == self.name) \
            and all(series.tag(key) == value for key, value in self.tags)


def tsdb_table(store: StoreView,
               start: int | None = None,
               end: int | None = None) -> Table:
    """The relational view of a store, optionally clipped to timestamps
    ``[start, end)``: rows of the one table its view builds."""
    index = store.derived(_build_index)
    if start is None and end is None:
        return index.table
    return index.table.slice_rows(*_row_range(index.timestamps, start, end))


def scan_store(store: StoreView, predicate: ScanPredicate
               ) -> tuple[Table, ScanReport]:
    """Pruned read of the ``tsdb`` table: rows of the view's table
    (:func:`tsdb_table`), never sorted again, and exact for the
    constraints the report names (:attr:`ScanReport.exact`): a
    superset of the rows the full WHERE keeps, and a subset of those
    its exact conjuncts keep, so the residual WHERE gives
    bitwise-identical results.

    - An exact ``metric_name = '...'`` / ``tag['key'] = '...'`` keeps
      the series the store's inverted indexes match: their row
      positions, concatenated (and merged when there are several).
      String equalities are exact.
    - The time range is a row range (``searchsorted``) of the table, or
      of each kept series: exact for int64 timestamps.
    - Value ranges select no rows.  The report counts the kept series'
      sealed chunks whose zone maps can meet the time and value ranges
      as scanned, the others as pruned.
    - When every :attr:`~ScanPredicate.group_by` key is a series
      constant (``metric_name``, ``tag['key']``), the rows come
      clustered by group, each group's rows in table order
      (:attr:`ScanReport.groups`): per-group runs of the kept series'
      positions, or per-group slices of the view's clustered layout
      (:func:`_layout`) when no series is pruned.  Otherwise rows come
      in table order.

    Constraints on columns the provider cannot act on are ignored.  The
    report's ``reads`` is the series filter (:class:`SeriesFilter`), or
    none for an impossible equality; ``None`` without one.
    """
    view = store.read_view()
    index = view.derived(_build_index)
    name = None
    tags: dict[str, str] = {}
    impossible = False
    exact = set()
    for column, value in predicate.equals:
        if column == "metric_name":
            if isinstance(value, str):
                if name is not None and value != name:
                    impossible = True
                name = value
                exact.add(("equals", column, value))
            else:
                impossible = True        # metric_name = non-string: no rows
    for column, key, value in predicate.map_equals:
        if column == "tag" and isinstance(value, str):
            if key in tags and tags[key] != value:
                impossible = True
            tags[key] = value
            exact.add(("map_equals", column, key, value))
    if predicate.range_for("timestamp") != (None, None):
        exact.add(("range", "timestamp"))
    start, end = _time_window(predicate)
    code, ts_min, ts_max, val_min, val_max = index.zones
    if impossible or name is not None or tags:
        kept = [] if impossible else view.find_exact(name, tags)
        picked = sorted(((index.series[s], s) for s in kept
                         if s in index.series), key=lambda item: item[0][0])
        mine = np.isin(code, [series_code for (series_code, _), _ in picked])
        reads = frozenset() if impossible else frozenset(
            {SeriesFilter(name, tuple(sorted(tags.items())))})
    else:
        kept, mine, reads = None, np.ones(code.size, dtype=bool), None
    meets = mine.copy()
    value_lo, value_hi = predicate.range_for("value")
    if start is not None:
        meets &= ts_max >= start
    if end is not None:
        meets &= ts_min < end
    if value_lo is not None:
        meets &= val_max >= _float(value_lo)
    if value_hi is not None:
        meets &= val_min <= _float(value_hi)
    keys = _series_keys(predicate.group_by)
    groups = None
    if kept is None:
        rows = _row_range(index.timestamps, start, end)
        if keys is None:
            table = index.table.slice_rows(*rows)
        else:
            table, groups = _layout(view, index, predicate.group_by,
                                    keys).window(*rows)
    else:
        runs: dict = {}
        for (series_code, ts), series in picked:
            part = index.rows(series_code, ts)[
                slice(*_row_range(ts, start, end))]
            if part.size:
                group = () if keys is None else tuple(
                    key(series) for key in keys)
                runs.setdefault(group, []).append(part)
        # Each series' positions ascend: a stable sort (timsort) merges
        # the runs instead of sorting from scratch.
        parts = [part[0] if len(part) == 1
                 else np.sort(np.concatenate(part), kind="stable")
                 for part in runs.values()]
        rows = np.concatenate(parts) if parts else np.empty(0, np.intp)
        table = index.table.gather(rows)
        if keys is not None:
            groups = ScanGroups(
                np.cumsum([part.size for part in parts], dtype=np.intp), rows)
    scanned = int(np.count_nonzero(meets))
    report = ScanReport(rows=len(table), series_total=len(view),
                        series_scanned=len(view if kept is None else kept),
                        chunks_scanned=scanned,
                        chunks_pruned=int(np.count_nonzero(mine)) - scanned,
                        reads=reads, exact=frozenset(exact), groups=groups)
    return table, report


def _series_keys(group_by: tuple) -> list[Callable[[SeriesId], Any]] | None:
    """Per-series getters of ``group_by``'s keys (a row's
    ``metric_name`` / ``tag['key']`` cell), or ``None`` unless every key
    is one of those series constants."""
    if not group_by:
        return None
    keys = []
    for column, key in group_by:
        if column == "metric_name" and key is None:
            keys.append(lambda series: series.name)
        elif column == "tag" and key is not None:
            keys.append(lambda series, key=key: series.tag(key))
        else:
            return None
    return keys


@dataclass(frozen=True)
class _Layout:
    """A view's table with its rows clustered by one set of GROUP BY
    keys (each group's rows in table order), where each row sits in
    the table, and where each group ends."""

    table: Table
    positions: np.ndarray
    ends: np.ndarray

    def window(self, lo: int, hi: int) -> tuple[Table, ScanGroups]:
        """Table rows ``[lo, hi)``, clustered: per group, the slice of
        its rows whose table positions fall there."""
        if lo == 0 and hi == self.positions.size:
            return self.table, ScanGroups(self.ends, self.positions)
        starts = self.ends - np.diff(self.ends, prepend=0)
        bounds = np.array(
            [start + np.searchsorted(self.positions[start:stop], (lo, hi))
             for start, stop in zip(starts.tolist(), self.ends.tolist())],
            dtype=np.intp).reshape(-1, 2)
        firsts, lasts = bounds[bounds[:, 1] > bounds[:, 0]].T
        lengths = lasts - firsts
        ends = np.cumsum(lengths)
        rows = np.arange(ends[-1] if ends.size else 0, dtype=np.intp) \
            + np.repeat(firsts - (ends - lengths), lengths)
        return (self.table.gather(rows),
                ScanGroups(ends, self.positions[rows]))


class _Layouts(dict):
    """A view's clustered layouts, by ``group_by``, filled on demand
    under its lock."""

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()


def _layouts(view: StoreView) -> _Layouts:
    return _Layouts()


def _layout(view: StoreView, index: _Index, group_by: tuple,
            keys: list[Callable[[SeriesId], Any]]) -> _Layout:
    """The view's table clustered by ``group_by``, built once per view
    and set of keys: series are grouped by their key cells and the rows
    stable-sorted by group (a radix sort of one small code per row).

    Each layout copies the table, and a new version builds its own, so
    a view's first layout drops those of the newest earlier view of
    the same series (:meth:`StoreView.derived_before`)."""
    layouts = view.derived(_layouts)
    layout = layouts.get(group_by)
    if layout is not None:
        return layout
    with layouts.lock:
        layout = layouts.get(group_by)
        if layout is not None:
            return layout
        if not layouts:
            earlier = view.derived_before(_layouts)
            if earlier is not None:
                earlier[0].clear()
        if not index.series:
            empty = np.empty(0, dtype=np.intp)
            layout = _Layout(index.table, empty, empty)
        else:
            found: dict[tuple, int] = {}
            group_of = np.empty(len(index.series), dtype=np.intp)
            for series, (code, _) in index.series.items():
                group_of[code] = found.setdefault(
                    tuple(key(series) for key in keys), len(found))
            row_group = group_of.astype(np.min_scalar_type(len(found)))[
                index.table.column_vectors()[1].codes]
            positions = np.argsort(row_group, kind="stable").astype(
                np.int32 if row_group.size < 2 ** 31 else np.intp)
            layout = _Layout(
                index.table.gather(positions), positions,
                np.cumsum(np.bincount(row_group, minlength=len(found)),
                          dtype=np.intp))
        layouts[group_by] = layout
    return layout


def _row_range(timestamps: np.ndarray, start: int | None,
               end: int | None) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of a sorted timestamp column in ``[start, end)``."""
    lo = 0 if start is None else int(np.searchsorted(timestamps, start))
    hi = (timestamps.size if end is None
          else int(np.searchsorted(timestamps, end)))
    return lo, max(lo, hi)


def _float(bound: float | int) -> float:
    """A value bound as a float (ints past the float range saturate)."""
    try:
        return float(bound)
    except OverflowError:
        return math.inf if bound > 0 else -math.inf


def _time_window(predicate: ScanPredicate
                 ) -> tuple[int | None, int | None]:
    """The predicate's closed timestamp interval as a half-open int64
    window ``[start, end)`` (``None`` ends are open).

    Timestamps are int64, so closed ``[lo, hi]`` becomes ``[ceil(lo),
    floor(hi) + 1)`` — exact for int literals, conservative for float
    ones.  A bound past the int64 range (±inf too) admits every
    timestamp, and is open, or none: then, as for a NaN bound, the
    window is ``[int64 max, int64 min)``, which no row or zone map meets.
    """
    lo, hi = predicate.range_for("timestamp")
    if lo != lo or hi != hi or (lo is not None and lo > _INT64.max) \
            or (hi is not None and hi < _INT64.min):
        return _INT64.max, _INT64.min
    start = None if lo is None or lo <= _INT64.min else math.ceil(lo)
    end = None if hi is None or hi >= _INT64.max else math.floor(hi) + 1
    return start, end


def store_stats(store: StoreView) -> None:
    """Always ``None``: nothing reads table statistics any more.

    It used to summarise the store for the planner; it stays importable
    because ``benchmarks/e2e/wl_sql.py`` still passes it as a
    ``stats_fn``.
    """
    return None


def register_store(db, store: StoreView, name: str = "tsdb") -> None:
    """Register a store on a Database as a lazily-materialised table.

    The provider is keyed on ``store.version``: the table materialises
    on first query and re-materialises only after the store mutates
    (including in-place ``apply`` fault overlays, which leave
    ``num_points()`` unchanged).  Time-range / metric / tag / value
    predicates and series-constant GROUP BY keys are pushed into the
    store scan (:func:`scan_store`), exact for the conjuncts it reports
    and clustered when asked.

    Every provider callback reads from one ``store.read_view()`` taken
    at entry, so the full table and every scan of a version read the
    one table its view builds.
    """
    db.register_scannable_provider(
        name,
        provider=lambda: tsdb_table(store.read_view()),
        version_fn=lambda: store.version,
        scan_fn=lambda predicate: scan_store(store.read_view(), predicate),
    )
