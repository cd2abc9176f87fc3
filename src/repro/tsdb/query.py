"""Scan and grid-alignment queries over the store.

These mirror the query primitives ExplainIt!'s connectors relied on from
OpenTSDB: select series by metric/tags, align them on a regular grid,
and interpolate missing observations ("Missing values in the time
series are interpolated to the closest non-null observation",
Appendix C).  Downsampling is declarative: SQL ``GROUP BY
FLOOR(timestamp / k) * k`` over the ``tsdb`` table
(:mod:`repro.tsdb.adapter`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.tsdb.model import SeriesId
from repro.tsdb.storage import StoreView


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
    """Declarative scan: metric/tag filters and a time range.

    Example
    -------
    >>> query = ScanQuery(name="disk", tags={"host": "datanode*"},
    ...                   start=0, end=1440)
    >>> result = query.run(store)                        # doctest: +SKIP
    """

    name: str | None = None
    tags: Mapping[str, str] | None = None
    start: int | None = None
    end: int | None = None
    series_ids: Sequence[SeriesId] | None = None

    def run(self, store: StoreView) -> "ScanResult":
        """Execute the scan against a store."""
        if self.series_ids is not None:
            matched = list(self.series_ids)
        else:
            matched = store.find(self.name, self.tags)
        return ScanResult(columns={
            series: store.arrays(series, self.start, self.end)
            for series in matched})


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
