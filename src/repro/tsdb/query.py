"""Scan, downsample, and aggregation queries over the store.

These mirror the query primitives ExplainIt!'s connectors relied on from
OpenTSDB: select series by metric/tags, align them on a regular grid,
downsample with an aggregator, and interpolate missing observations
("Missing values in the time series are interpolated to the closest
non-null observation", Appendix C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.sql.functions import SEGMENTED_AGGREGATES, segmented_order_stat
from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.storage import StoreView


#: Percent per ``pNN`` aggregator — the one statement of what the names
#: mean; the scalar, row-wise and ragged-bucket forms all derive from it.
_PERCENT = {"p95": 95, "p99": 99}

_AGGREGATORS: dict[str, Callable[[np.ndarray], float]] = {
    "avg": lambda a: float(np.mean(a)),
    "sum": lambda a: float(np.sum(a)),
    "min": lambda a: float(np.min(a)),
    "max": lambda a: float(np.max(a)),
    "count": lambda a: float(a.size),
    "median": lambda a: float(np.median(a)),
    **{name: (lambda a, p=p: float(np.percentile(a, p)))
       for name, p in _PERCENT.items()},
}

#: Row-wise (axis=1) counterparts of the scalar aggregators, used by the
#: equal-width bucket fast path.  numpy evaluates an axis reduction with
#: the same per-row kernel as the scalar call on each row slice, so the
#: outputs are bitwise identical to the per-bucket loop (``count`` is
#: derived from bucket sizes instead).
_ROW_AGGREGATORS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "avg": lambda m: np.mean(m, axis=1),
    "sum": lambda m: np.sum(m, axis=1),
    "min": lambda m: np.min(m, axis=1),
    "max": lambda m: np.max(m, axis=1),
    "median": lambda m: np.median(m, axis=1),
    **{name: (lambda m, p=p: np.percentile(m, p, axis=1))
       for name, p in _PERCENT.items()},
}


def aggregator(name: str) -> Callable[[np.ndarray], float]:
    """Look up a named aggregator (avg, sum, min, max, count, median, p95, p99)."""
    try:
        return _AGGREGATORS[name.lower()]
    except KeyError:
        raise SeriesFormatError(
            f"unknown aggregator {name!r}; choose from {sorted(_AGGREGATORS)}"
        ) from None


@dataclass
class Downsampler:
    """Bucket observations into fixed-width windows and aggregate each.

    ``interval`` is in the same (epoch-minute) units as the store; the
    bucket label is the left edge of the window.
    """

    interval: int = 1
    agg: str = "avg"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SeriesFormatError("downsample interval must be positive")
        aggregator(self.agg)        # rejects an unknown name
        self._row_fn = _ROW_AGGREGATORS.get(self.agg.lower())

    def apply(self, timestamps: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return downsampled (timestamps, values) arrays.

        Fully vectorized: bucket edges are the run boundaries of the
        bucket-label column (one comparison per point instead of a
        Python loop), ``count`` comes straight from the bucket sizes,
        and when every bucket holds the same number of points — the
        dense regular-grid case — the values are reshaped to a
        ``(buckets, width)`` matrix and reduced along axis 1.  Ragged
        (gappy) buckets run SQL's GROUP BY kernels (``SEGMENTED_AGGREGATES``
        and ``segmented_order_stat`` in :mod:`repro.sql.functions`).  Every
        path is bitwise identical to the per-point reference loop.
        """
        if timestamps.size == 0:
            return timestamps.copy(), values.copy()
        buckets = (timestamps // self.interval) * self.interval
        if buckets.size > 1:
            edges = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
        else:
            edges = np.empty(0, dtype=np.intp)
        starts = np.concatenate((np.zeros(1, dtype=np.intp), edges))
        ends = np.concatenate((edges, np.array([buckets.size], dtype=np.intp)))
        out_ts = np.asarray(buckets[starts], dtype=np.int64)
        sizes = ends - starts
        agg = self.agg.lower()
        if agg == "count":
            return out_ts, sizes.astype(np.float64)
        if self._row_fn is not None and np.all(sizes == sizes[0]):
            width = int(sizes[0])
            matrix = np.ascontiguousarray(values).reshape(-1, width)
            return out_ts, np.asarray(self._row_fn(matrix),
                                      dtype=np.float64)
        if agg in ("min", "max", "sum", "avg"):
            # SQL's GROUP BY kernels: bitwise the per-bucket numpy call.
            kernel = SEGMENTED_AGGREGATES[agg.upper()]
            return out_ts, np.asarray(kernel(values, starts, ends),
                                      dtype=np.float64)
        # median / pNN: the quantile np.percentile itself derives.
        q = None if agg == "median" else np.true_divide(_PERCENT[agg], 100)
        return out_ts, segmented_order_stat(
            np.asarray(values, dtype=np.float64), starts, sizes, q)


def align_to_grid(timestamps: np.ndarray, values: np.ndarray,
                  grid: np.ndarray) -> np.ndarray:
    """Align a series onto a regular (strictly increasing) grid.

    Values at grid points not present in ``timestamps`` are filled from the
    nearest observed neighbour (ties go to the earlier point), matching the
    paper's closest-non-null interpolation policy.  Grid points outside the
    observed range take the first/last observed value.
    """
    if timestamps.size == 0:
        return np.full(grid.shape, np.nan)
    lo = int(np.searchsorted(grid, timestamps[0]))
    hi = lo + timestamps.size
    if hi <= grid.size and np.array_equal(timestamps, grid[lo:hi]):
        # A gap-free run of grid points (a scrape that started late or
        # stopped early, or covers the whole grid): the general path
        # picks each observation in place and the edge value outside.
        # The result is a fresh array, never a memmap'd store column.
        aligned = np.empty(grid.shape)
        aligned[:lo] = values[0]
        aligned[lo:hi] = values
        aligned[hi:] = values[-1]
        return aligned
    # Index of the first observation >= each grid point.
    right = np.searchsorted(timestamps, grid, side="left")
    right = np.clip(right, 0, timestamps.size - 1)
    left = np.clip(right - 1, 0, timestamps.size - 1)
    dist_right = np.abs(timestamps[right] - grid)
    dist_left = np.abs(grid - timestamps[left])
    take_left = dist_left <= dist_right
    chosen = np.where(take_left, left, right)
    return values[chosen].astype(np.float64)


@dataclass
class ScanQuery:
    """Declarative scan: metric/tag filters, a time range, and downsampling.

    Example
    -------
    >>> query = ScanQuery(name="disk", tags={"host": "datanode*"},
    ...                   start=0, end=1440, downsample=Downsampler(5, "avg"))
    >>> result = query.run(store)                        # doctest: +SKIP
    """

    name: str | None = None
    tags: Mapping[str, str] | None = None
    start: int | None = None
    end: int | None = None
    downsample: Downsampler | None = None
    series_ids: Sequence[SeriesId] | None = None

    def run(self, store: StoreView) -> "ScanResult":
        """Execute the scan against a store."""
        if self.series_ids is not None:
            matched = list(self.series_ids)
        else:
            matched = store.find(self.name, self.tags)
        columns: dict[SeriesId, tuple[np.ndarray, np.ndarray]] = {}
        for series in matched:
            ts, vals = store.arrays(series, self.start, self.end)
            if self.downsample is not None:
                ts, vals = self.downsample.apply(ts, vals)
            columns[series] = (ts, vals)
        return ScanResult(columns=columns)


@dataclass
class ScanResult:
    """Result of a scan: per-series column pairs and their common grid.

    Dense matrices — the "dense arrays" optimisation of section 4.2 —
    are built per family from these columns by
    :func:`repro.core.families.families_from_store`.
    """

    columns: dict[SeriesId, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.columns)

    def series_ids(self) -> list[SeriesId]:
        """Series ids in the result, in stable order."""
        return list(self.columns)

    def grid(self, interval: int = 1) -> np.ndarray:
        """Common regular grid spanning all series in the result."""
        lo: int | None = None
        hi: int | None = None
        for ts, _ in self.columns.values():
            if ts.size == 0:
                continue
            lo = int(ts[0]) if lo is None else min(lo, int(ts[0]))
            hi = int(ts[-1]) if hi is None else max(hi, int(ts[-1]))
        if lo is None or hi is None:
            return np.empty(0, dtype=np.int64)
        return np.arange(lo, hi + 1, interval, dtype=np.int64)
