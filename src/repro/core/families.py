"""Feature families: grouping metrics into human-relatable variables (§3.2).

"Grouping univariate metrics into families is useful to reduce the
complexity of interpreting dependencies between variables."  A family is
a named bag of univariate metrics materialised as a dense (T, F) matrix.
Groupings supported here mirror the paper's examples:

- by metric name — the default used in every case study;
- by a tag (``host`` gives ``*{host=datanode-1}``, missing tags fall into
  the ``NULL`` family);
- by glob patterns (``disk{host=datanode*}``);
- by arbitrary SQL over the Feature Family Table (Figure 4).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.linmodel.preprocessing import interpolate_missing
from repro.sql.table import Table
from repro.tsdb.model import (
    SeriesData,
    SeriesId,
    group_key_by_name,
    group_key_by_tag,
)
from repro.tsdb.query import ScanQuery, align_to_grid
from repro.tsdb.storage import StoreView, clipped_arrays


class FamilyError(Exception):
    """Raised for malformed or empty families."""


@dataclass(eq=False)
class FeatureFamily:
    """A named group of metrics with a dense data matrix.

    ``matrix`` has shape (T, F); ``members`` names each column;
    ``grid`` holds the shared timestamps.  ``sources`` holds, for a
    family built by :func:`families_from_store`, the frozen store
    columns its matrix was aligned from (empty otherwise).

    Families compare and hash by identity: two families are "the same"
    exactly when they are one object, which is what lets a newer version
    reuse a family — and every score computed over it — unchanged.
    """

    name: str
    matrix: np.ndarray
    members: list[str]
    grid: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    sources: tuple[SeriesData, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim == 1:
            self.matrix = self.matrix[:, None]
        if self.matrix.ndim != 2:
            raise FamilyError(
                f"family {self.name!r} matrix must be 2-D, got "
                f"{self.matrix.shape}"
            )
        if self.matrix.shape[1] != len(self.members):
            raise FamilyError(
                f"family {self.name!r} has {self.matrix.shape[1]} columns "
                f"but {len(self.members)} member names"
            )
        if np.isnan(self.matrix).any():
            self.matrix = interpolate_missing(self.matrix)

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    def restrict(self, start: int, end: int) -> "FeatureFamily":
        """Clip to grid timestamps in [start, end)."""
        if self.grid.size != self.n_samples:
            raise FamilyError(
                f"family {self.name!r} has no grid; cannot restrict by time"
            )
        keep = (self.grid >= start) & (self.grid < end)
        return FeatureFamily(
            name=self.name,
            matrix=self.matrix[keep],
            members=list(self.members),
            grid=self.grid[keep],
        )

    def __repr__(self) -> str:
        return (f"FeatureFamily(name={self.name!r}, T={self.n_samples}, "
                f"F={self.n_features})")


class FamilySet:
    """An ordered collection of families sharing one time grid.

    ``origin`` records how :func:`families_from_store` built the set —
    what a later call needs to know before it may reuse its families —
    and is ``None`` for any other set.
    """

    def __init__(self, families: Iterable[FeatureFamily] = ()) -> None:
        self._families: dict[str, FeatureFamily] = {}
        self.origin: "_Origin | None" = None
        for family in families:
            self.add(family)

    def add(self, family: FeatureFamily) -> None:
        if family.name in self._families:
            raise FamilyError(f"duplicate family name {family.name!r}")
        if self._families:
            first = next(iter(self._families.values()))
            if family.n_samples != first.n_samples:
                raise FamilyError(
                    f"family {family.name!r} has {family.n_samples} samples; "
                    f"the set uses {first.n_samples}"
                )
        self._families[family.name] = family

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self):
        return iter(self._families.values())

    def __getitem__(self, name: str) -> FeatureFamily:
        try:
            return self._families[name]
        except KeyError:
            raise FamilyError(
                f"unknown family {name!r}; available: {self.names()[:20]}"
            ) from None

    def names(self) -> list[str]:
        return list(self._families)

    def total_features(self) -> int:
        """Sum of features across families (the paper's '# Features')."""
        return sum(f.n_features for f in self._families.values())

    def subset(self, names: Iterable[str]) -> "FamilySet":
        """A new set restricted to the named families."""
        return FamilySet(self[name] for name in names)

    def restrict(self, start: int, end: int) -> "FamilySet":
        """Clip every family to one time range."""
        return FamilySet(f.restrict(start, end)
                         for f in self._families.values())


def families_from_store(store: StoreView,
                        group_by: str = "name",
                        start: int | None = None,
                        end: int | None = None,
                        name_filter: str | None = None,
                        tag_filters: Mapping[str, str] | None = None,
                        previous: FamilySet | None = None) -> FamilySet:
    """Group a store's series into families.

    ``group_by`` is ``"name"`` (default, the paper's usual grouping),
    ``"tag:<key>"`` for a tag-based grouping, or a callable mapping a
    :class:`SeriesId` to a family key.  Each family's matrix is built
    C-contiguous, one aligned column per member.

    ``previous`` — an earlier result of this function, typically over an
    older version of the same store — changes the cost, never the
    result.  One of its families is reused, as the very same object,
    when this call's arguments and grid equal the ones it was built with
    and every member column is the identical frozen column
    (:meth:`SeriesData.freeze <repro.tsdb.model.SeriesData.freeze>`
    returns the same clone until that series' next write, ``apply``
    included, so ``is`` means "not written since").  Every other family
    is aligned afresh; with no ``previous`` that is all of them.  A
    write that moves the grid (extends the horizon) therefore rebuilds
    every family.

    When, besides equal arguments, no series joined the store
    (:attr:`StoreView.series_token`) and the store's span is still
    ``previous``'s grid, the matched series and the grid cannot have
    changed — writes only append and rewrite values inside the span —
    so the refresh re-aligns the written families and nothing else:
    there is no scan, grid or regrouping.  It learns what was written
    from the store's write log (:meth:`StoreView.written_since`), in
    O(series written); when the log no longer reaches back to
    ``previous``'s version it compares every member column by identity
    instead.  Either way the result's ``origin.realigned`` names the
    families it re-aligned; it is ``None`` after a full build.
    """
    key_fn = _group_key_fn(group_by)
    view = store.read_view()
    build = (group_by, start, end, name_filter,
             None if tag_filters is None else sorted(tag_filters.items()))
    origin = previous.origin if previous is not None else None
    if origin is not None and origin.build == build \
            and origin.token is view.series_token and origin.grid.size \
            and view.time_range() == (int(origin.grid[0]),
                                      int(origin.grid[-1])):
        return _refresh(view, previous, start, end)
    result = ScanQuery(name=name_filter, tags=tag_filters,
                       start=start, end=end).run(view)
    if not result.columns:
        raise FamilyError("no series matched the family scan")
    grid = result.grid()
    reusable: dict[str, FeatureFamily] = {}
    if origin is not None and origin.build == build \
            and np.array_equal(origin.grid, grid):
        reusable = previous._families
    grouped: dict[str, list[SeriesId]] = {}
    for series in result.series_ids():
        grouped.setdefault(str(key_fn(series)), []).append(series)
    families = FamilySet()
    for family_name in sorted(grouped):
        members = grouped[family_name]
        sources = view.get_many(members)
        old = reusable.get(family_name)
        if old is not None and len(old.sources) == len(sources) \
                and all(map(operator.is_, old.sources, sources)):
            families.add(old)
            continue
        families.add(_aligned(family_name, sources, [
            result.columns[s] for s in members], grid))
    families.origin = _Origin(
        build, grid, view.series_token, view.version,
        {c.series: f.name for f in families for c in f.sources}, None)
    return families


class _Origin(NamedTuple):
    """How :func:`families_from_store` built a set: its arguments, grid,
    series token and store version, the family each member series
    belongs to, and the names of the families a refresh re-aligned
    (``None`` for a full build)."""

    build: tuple
    grid: np.ndarray
    token: object
    version: int
    owners: dict[SeriesId, str]
    realigned: tuple[str, ...] | None


def _refresh(view: StoreView, previous: FamilySet, start: int | None,
             end: int | None) -> FamilySet:
    """``previous`` at ``view``, whose series set and span it already
    covers: a family none of whose members was written since is kept,
    the others have their members re-aligned."""
    origin = previous.origin
    written = view.written_since(origin.version)
    if written is None:             # the log does not reach back: compare
        names = [f.name for f in previous
                 if not all(map(operator.is_, f.sources, view.get_many(
                     map(_SERIES, f.sources))))]
    else:
        owners = origin.owners
        names = sorted({owners[s] for s in written if s in owners})
    families = FamilySet()
    refreshed = families._families = dict(previous._families)
    for name in names:
        members = view.get_many(map(_SERIES, refreshed[name].sources))
        refreshed[name] = _aligned(name, members, [
            clipped_arrays(c, start, end) for c in members], origin.grid)
    families.origin = origin._replace(token=view.series_token,
                                      version=view.version,
                                      realigned=tuple(names))
    return families


def _aligned(name: str, sources: tuple[SeriesData, ...],
             columns: list[tuple[np.ndarray, np.ndarray]],
             grid: np.ndarray) -> FeatureFamily:
    """One family aligned onto ``grid`` from its members' columns."""
    return FeatureFamily(
        name=name,
        matrix=np.column_stack([align_to_grid(ts, vals, grid)
                                for ts, vals in columns]),
        members=[str(c.series) for c in sources],
        grid=grid,
        sources=sources,
    )


_SERIES = operator.attrgetter("series")


def _group_key_fn(group_by) -> Callable[[SeriesId], str]:
    if callable(group_by):
        return group_by
    if group_by == "name":
        return group_key_by_name
    if isinstance(group_by, str) and group_by.startswith("tag:"):
        return group_key_by_tag(group_by[4:])
    raise FamilyError(
        f"group_by must be 'name', 'tag:<key>' or a callable, got {group_by!r}"
    )


FF_COLUMNS = ["timestamp", "name", "v"]


def family_table_from_store(store: StoreView,
                            group_by: str = "name",
                            start: int | None = None,
                            end: int | None = None) -> Table:
    """Materialise the normalised Feature Family Table of Figure 4.

    Schema: ``(timestamp, name, v: map<string, double>)`` — one row per
    (timestamp, family), with ``v`` mapping member metric ids to values.
    """
    families = families_from_store(store, group_by=group_by,
                                   start=start, end=end)
    rows = []
    for family in families:
        for i, ts in enumerate(family.grid.tolist()):
            v_map = {member: float(family.matrix[i, j])
                     for j, member in enumerate(family.members)}
            rows.append((int(ts), family.name, v_map))
    rows.sort(key=lambda r: (r[0], r[1]))
    return Table(FF_COLUMNS, rows)


def families_from_table(table: Table,
                        timestamp_column: str = "timestamp",
                        name_column: str = "name",
                        value_column: str = "v") -> FamilySet:
    """Rebuild a :class:`FamilySet` from a Feature Family Table.

    This is the bridge from the declarative layer back into dense
    matrices: SQL produces/filters the normalised table, and this
    function aligns each family onto the union grid of all timestamps
    (missing observations interpolated to the closest neighbour).
    """
    ts_idx = table.column_index(timestamp_column)
    name_idx = table.column_index(name_column)
    val_idx = table.column_index(value_column)
    per_family: dict[str, dict[int, dict]] = {}
    all_ts: set[int] = set()
    for row in table.rows:
        ts, name, v_map = row[ts_idx], row[name_idx], row[val_idx]
        if ts is None or name is None or v_map is None:
            continue
        if not isinstance(v_map, dict):
            raise FamilyError(
                f"column {value_column!r} must hold map values, got "
                f"{type(v_map).__name__}"
            )
        ts = int(ts)
        all_ts.add(ts)
        per_family.setdefault(str(name), {})[ts] = v_map
    if not per_family:
        raise FamilyError("feature family table is empty")
    grid = np.asarray(sorted(all_ts), dtype=np.int64)
    families = FamilySet()
    for family_name in sorted(per_family):
        by_ts = per_family[family_name]
        members: list[str] = sorted({k for v in by_ts.values() for k in v})
        matrix = np.full((grid.size, len(members)), np.nan)
        member_col = {m: j for j, m in enumerate(members)}
        for i, ts in enumerate(grid.tolist()):
            v_map = by_ts.get(ts)
            if v_map is None:
                continue
            for member, value in v_map.items():
                if value is not None:
                    matrix[i, member_col[member]] = float(value)
        families.add(FeatureFamily(
            name=family_name,
            matrix=interpolate_missing(matrix),
            members=members,
            grid=grid,
        ))
    return families


def normalise_query_result(table: Table, family_prefix: str = "") -> Table:
    """Normalise an arbitrary SQL result into the Feature Family schema.

    Mirrors the paper's second pipeline stage: the first column is the
    timestamp, the second the family name, and every remaining numeric
    column becomes an entry in the ``v`` map keyed by its column name —
    "the second stage interprets the aggregated columns as a map whose
    keys are the column names" (Appendix C).
    """
    if len(table.columns) < 3:
        raise FamilyError(
            "expected at least (timestamp, name, value...) columns, got "
            f"{table.columns}"
        )
    value_columns = table.columns[2:]
    rows = []
    for row in table.rows:
        ts, name = row[0], row[1]
        if ts is None:
            continue
        v_map = {col: (float(row[i + 2]) if row[i + 2] is not None else None)
                 for i, col in enumerate(value_columns)}
        family = f"{family_prefix}{name}" if name is not None else (
            family_prefix or "family")
        rows.append((int(ts), str(family), v_map))
    return Table(FF_COLUMNS, rows)
