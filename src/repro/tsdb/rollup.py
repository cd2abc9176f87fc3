"""Materialised rollups: pre-aggregated views of expensive queries.

Appendix C: "Commonly used feature family aggregates (such as 99th
percentile latency) can be made available as materialised views to avoid
expensive aggregations."  A :class:`RollupCatalog` maintains named
downsampled/aggregated views over a store, invalidating them when the
store *mutates* (keyed on the store's monotonic ``version``, so value
rewrites from fault injection invalidate just like appends), and can
register each view as a SQL table.

Materialisation is columnar: the downsampled per-series columns go
through :func:`~repro.tsdb.adapter.observations_to_table` instead of an
explicit per-observation row explosion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.sql.table import Table
from repro.tsdb.adapter import observations_to_table
from repro.tsdb.model import SeriesFormatError
from repro.tsdb.query import Downsampler, ScanQuery
from repro.tsdb.storage import StoreView
from repro.versioned import VersionedCache


@dataclass(frozen=True)
class RollupSpec:
    """Definition of one rollup view."""

    name: str
    interval: int
    agg: str = "avg"
    metric: str | None = None
    tags: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SeriesFormatError("rollup interval must be positive")
        Downsampler(self.interval, self.agg)   # validates the aggregator


class RollupCatalog:
    """Named, cached, invalidation-aware rollup views over one store."""

    def __init__(self, store: StoreView) -> None:
        self._store = store
        self._specs: dict[str, RollupSpec] = {}
        self._cache = VersionedCache()

    def define(self, spec: RollupSpec) -> None:
        """Register (or replace) a rollup definition."""
        self._specs[spec.name] = spec
        self._cache.discard(spec.name)

    def names(self) -> list[str]:
        return sorted(self._specs)

    def table(self, name: str) -> Table:
        """Materialise (or fetch the cached) rollup table.

        Schema: ``(timestamp, metric_name, tag, value)`` like the raw
        tsdb adapter, but at the rollup's granularity.  The cache key is
        the store's mutation ``version``, so appends *and* in-place
        value transforms (``store.apply``, used by fault injection)
        invalidate stale views — a point-count key would miss the
        latter.
        """
        spec = self._specs.get(name)
        if spec is None:
            raise SeriesFormatError(
                f"unknown rollup {name!r}; defined: {self.names()}"
            )
        return self._cache.get_or_build(
            name, self._store.version, lambda: self._materialise(spec))

    def is_cached(self, name: str) -> bool:
        """True when the rollup is materialised and current."""
        return self._cache.get(name, self._store.version) is not None

    def _materialise(self, spec: RollupSpec) -> Table:
        query = ScanQuery(
            name=spec.metric,
            tags=spec.tags,
            downsample=Downsampler(spec.interval, spec.agg),
        )
        result = query.run(self._store)
        return observations_to_table(
            (series, ts, vals)
            for series, (ts, vals) in result.columns.items())

    def register_all(self, db) -> None:
        """Expose every rollup as a lazily-materialised SQL table.

        Providers are keyed on the store version, so a query after a
        store mutation sees the refreshed rollup (the catalog's own
        cache keeps the refresh cheap when nothing changed).
        """
        for name in self.names():
            db.register_versioned_provider(
                name, lambda n=name: self.table(n),
                lambda: self._store.version)
