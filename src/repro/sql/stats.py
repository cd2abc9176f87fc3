"""Column statistics and selectivity estimation for the planner.

Two producers feed :class:`TableStats`:

- Scannable providers (the tsdb adapter) derive them from storage-level
  zone maps without materialising the relational table — row count from
  the store, min/max from the per-chunk union, distinct estimates from
  per-chunk exact counts (summing over-counts values shared between
  chunks, hence *estimate*).
- Materialised tables compute them with one numpy pass per column,
  cached on the table object — a table is immutable once built, and
  versioned providers hand out a new object per version, so the cache
  never goes stale.

The estimates are diagnostics: they give every EXPLAIN stage its
``est=`` (per-conjunct WHERE selectivity, group and join cardinality),
to be read against the ``actual=`` the executor records.  No execution
decision reads them — the executor chooses engine and join build side
from the sizes of the relations it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.sql.table import DictColumn
from repro.sql.nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    IsNull,
    Like,
    Literal,
    Node,
    Subscript,
    UnaryOp,
    flatten_and,
)

#: Default selectivity for a conjunct the estimator cannot reason about —
#: the classic System R fallback for an arbitrary predicate.
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class ColumnSummary:
    """min/max (nulls excluded), null count, and a distinct estimate.

    Any field may be ``None`` when unknown (unorderable cells, object
    columns the one-pass scan cannot summarise cheaply).
    """

    min: Any = None
    max: Any = None
    null_count: int | None = None
    distinct: int | None = None


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column summaries (column names lower-cased).

    ``map_columns`` carries summaries for the *virtual* columns a map
    subscript projects out — ``(column, key) -> summary`` for
    expressions like ``tag['host']`` — keyed case-sensitively on the
    map key (SQL string literals are case-sensitive) and lower-cased on
    the column name like ``columns``.  A key's ``null_count`` counts
    rows where the map lacks the key, which is exactly what
    ``tag['host'] IS NULL`` selects.
    """

    rows: int
    columns: tuple[tuple[str, ColumnSummary], ...] = ()
    map_columns: tuple[tuple[tuple[str, str], ColumnSummary], ...] = ()

    def column(self, name: str) -> ColumnSummary | None:
        lowered = name.lower()
        for col, summary in self.columns:
            if col == lowered:
                return summary
        return None

    def map_column(self, name: str, key: str) -> ColumnSummary | None:
        """Summary for the virtual column ``name[key]``, if collected."""
        lowered = name.lower()
        for (col, map_key), summary in self.map_columns:
            if col == lowered and map_key == key:
                return summary
        return None


def table_stats(table) -> TableStats:
    """Statistics for a materialised :class:`~repro.sql.table.Table`.

    One pass per column; cached on the table object (immutable once
    built).  Object columns are summarised only when every cell is a
    string or None — dict/list cells (the tsdb ``tag`` column) are
    unorderable and get an empty summary.  A dictionary-encoded column
    is summarised from its dictionary and one ``bincount`` of the
    codes, never from decoded cells.
    """
    cached = getattr(table, "_stats_cache", None)
    if cached is not None:
        return cached
    columns: list[tuple[str, ColumnSummary]] = []
    map_columns: list[tuple[tuple[str, str], ColumnSummary]] = []
    vectors = table.column_vectors()
    if vectors is not None:
        for name, vec in zip(table.columns, vectors):
            columns.append((name.lower(), _summarise_vector(vec)))
            map_columns.extend(
                ((name.lower(), key), summary)
                for key, summary in _summarise_map_vector(vec))
    stats = TableStats(rows=len(table), columns=tuple(columns),
                       map_columns=tuple(map_columns))
    try:
        table._stats_cache = stats
    except AttributeError:
        pass
    return stats


def _weighted_cells(vec: "np.ndarray | DictColumn"
                    ) -> tuple[list, list[int]]:
    """An object column as ``(cells, rows holding each cell)``.

    An encoded column yields its referenced dictionary entries with
    their row counts; a flat one yields every cell with weight one.
    """
    if isinstance(vec, DictColumn):
        counts = np.bincount(vec.codes, minlength=vec.values.size)
        held = np.flatnonzero(counts)
        return vec.values[held].tolist(), counts[held].tolist()
    return vec.tolist(), [1] * vec.size


def _summarise_vector(vec: "np.ndarray | DictColumn") -> ColumnSummary:
    if len(vec) == 0:
        return ColumnSummary(null_count=0, distinct=0)
    kind = vec.dtype.kind
    if kind == "O":
        cells, counts = _weighted_cells(vec)
        nulls = sum(n for c, n in zip(cells, counts) if c is None)
        present = [c for c in cells if c is not None]
        if present and all(isinstance(c, str) for c in present):
            return ColumnSummary(min=min(present), max=max(present),
                                 null_count=nulls,
                                 distinct=len(set(present)))
        return ColumnSummary(null_count=nulls)
    if isinstance(vec, DictColumn):
        vec = vec.decode()          # typed dictionaries summarise flat
    if kind in "iu":
        return ColumnSummary(min=int(vec.min()), max=int(vec.max()),
                             null_count=0, distinct=int(np.unique(vec).size))
    if kind == "f":
        nan_mask = np.isnan(vec)
        nulls = int(np.count_nonzero(nan_mask))
        if nulls == vec.size:
            return ColumnSummary(null_count=nulls, distinct=0)
        finite = vec[~nan_mask] if nulls else vec
        return ColumnSummary(min=float(finite.min()), max=float(finite.max()),
                             null_count=nulls,
                             distinct=int(np.unique(finite).size))
    if kind == "b":
        return ColumnSummary(min=bool(vec.min()), max=bool(vec.max()),
                             null_count=0, distinct=int(np.unique(vec).size))
    return ColumnSummary()


def _summarise_map_vector(vec: "np.ndarray | DictColumn"
                          ) -> list[tuple[str, ColumnSummary]]:
    """Per-key summaries for a column whose cells are all string maps.

    Returns ``[]`` unless every non-null cell is a dict — the tsdb
    ``tag`` column.  Cells are *shared* dicts (one per series), so the
    walk is O(distinct dicts × keys): an encoded column hands over its
    dictionary with row counts, a flat one is deduplicated by identity
    with one ``id()`` lookup per row.
    """
    if vec.dtype.kind != "O":
        return []
    cells, weights = _weighted_cells(vec)
    if all(c is None for c in cells) or not all(
            c is None or isinstance(c, dict) for c in cells):
        return []
    counts: dict[int, int] = {}
    by_id: dict[int, dict] = {}
    for cell, n in zip(cells, weights):
        if cell is None:
            continue
        ident = id(cell)
        counts[ident] = counts.get(ident, 0) + n
        by_id[ident] = cell
    key_rows: dict[str, int] = {}
    key_values: dict[str, set] = {}
    for ident, tags in by_id.items():
        n = counts[ident]
        for key, value in tags.items():
            key_rows[key] = key_rows.get(key, 0) + n
            key_values.setdefault(key, set()).add(value)
    rows = len(vec)
    out = []
    for key in sorted(key_rows):
        values = key_values[key]
        ordered = sorted(values) if all(
            isinstance(v, str) for v in values) else None
        out.append((key, ColumnSummary(
            min=ordered[0] if ordered else None,
            max=ordered[-1] if ordered else None,
            null_count=rows - key_rows[key],
            distinct=len(values))))
    return out


# ---------------------------------------------------------------------------
# Selectivity estimation
# ---------------------------------------------------------------------------
def estimate_selectivity(predicate: Node | None,
                         stats: TableStats | None) -> float:
    """Estimated fraction of rows a WHERE keeps, in ``[0, 1]``.

    Per-conjunct estimates multiplied together (independence
    assumption): equality ``1/distinct``, range predicates by linear
    interpolation over ``[min, max]``, ``IS [NOT] NULL`` from null
    counts, :data:`DEFAULT_SELECTIVITY` for anything else.
    """
    if predicate is None:
        return 1.0
    fraction = 1.0
    for conjunct in flatten_and(predicate):
        fraction *= _conjunct_selectivity(conjunct, stats)
    return fraction


def _conjunct_selectivity(node: Node, stats: TableStats | None) -> float:
    if isinstance(node, BinaryOp) and node.op == "OR":
        left = _conjunct_selectivity(node.left, stats)
        right = _conjunct_selectivity(node.right, stats)
        return min(1.0, left + right - left * right)
    if isinstance(node, UnaryOp) and node.op == "NOT":
        return 1.0 - _conjunct_selectivity(node.operand, stats)
    if isinstance(node, Literal):
        if node.value is True:
            return 1.0
        if node.value in (False, None):
            return 0.0
    summary, comparison = _column_comparison(node, stats)
    if comparison is not None:
        op, value = comparison
        fraction = _comparison_selectivity(op, value, summary)
        # A map subscript is NULL wherever the key is absent, and NULL
        # never satisfies a comparison — scale by the present fraction.
        # (Plain columns keep the classic estimate: their null counts
        # are near zero in this schema and the historical numbers are
        # part of the planner's documented output.)
        ref = node.left if _is_stats_ref(node.left) else node.right
        if (isinstance(ref, Subscript) and summary is not None
                and summary.null_count and stats is not None and stats.rows):
            fraction *= max(0.0, 1.0 - summary.null_count / stats.rows)
        return fraction
    if isinstance(node, Between) and not node.negated:
        column, lo, hi = _between_parts(node, stats)
        if column is not None:
            low = _comparison_selectivity(">=", lo, column)
            high = _comparison_selectivity("<=", hi, column)
            return max(0.0, low + high - 1.0)
    if isinstance(node, IsNull):
        column = _column_summary(node.expr, stats)
        if column is not None and column.null_count is not None \
                and stats is not None and stats.rows:
            frac = column.null_count / stats.rows
            return (1.0 - frac) if node.negated else frac
    if isinstance(node, InList) and not node.negated:
        column = _column_summary(node.expr, stats)
        if column is not None and column.distinct:
            return min(1.0, len(node.items) / column.distinct)
    if isinstance(node, Like):
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _column_comparison(node: Node, stats: TableStats | None):
    """Match ``col <op> literal`` (either orientation); returns
    ``(summary, (op, value))`` with ``summary`` possibly ``None``.

    ``col`` is a plain column reference or a map subscript with a
    string-literal key (``tag['host']``) — the virtual column the tsdb
    stats tier summarises per tag key.
    """
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
               "=": "=", "<>": "<>"}
    if not isinstance(node, BinaryOp) or node.op not in flipped:
        return None, None
    if _is_stats_ref(node.left) and isinstance(node.right, Literal):
        return (_column_summary(node.left, stats),
                (node.op, node.right.value))
    if _is_stats_ref(node.right) and isinstance(node.left, Literal):
        return (_column_summary(node.right, stats),
                (flipped[node.op], node.left.value))
    return None, None


def _is_stats_ref(node: Node) -> bool:
    """Can ``_column_summary`` resolve this expression to a summary?"""
    if isinstance(node, ColumnRef):
        return True
    return (isinstance(node, Subscript)
            and isinstance(node.base, ColumnRef)
            and isinstance(node.index, Literal)
            and isinstance(node.index.value, str))


def _column_summary(node: Node, stats: TableStats | None
                    ) -> ColumnSummary | None:
    if stats is None:
        return None
    if isinstance(node, ColumnRef):
        return stats.column(node.name)
    if _is_stats_ref(node):             # map subscript with a literal key
        return stats.map_column(node.base.name, node.index.value)
    return None


def _between_parts(node: Between, stats: TableStats | None):
    if isinstance(node.low, Literal) and isinstance(node.high, Literal):
        return (_column_summary(node.expr, stats),
                node.low.value, node.high.value)
    return None, None, None


def _comparison_selectivity(op: str, value: Any,
                            summary: ColumnSummary | None) -> float:
    if value is None:
        return 0.0                      # comparisons with NULL never hold
    if op == "=":
        if summary is not None and summary.distinct:
            return 1.0 / summary.distinct
        return 0.1
    if op == "<>":
        if summary is not None and summary.distinct:
            return 1.0 - 1.0 / summary.distinct
        return 0.9
    if summary is None or summary.min is None or summary.max is None:
        return DEFAULT_SELECTIVITY
    lo, hi = summary.min, summary.max
    if not _orderable(value, lo, hi):
        return DEFAULT_SELECTIVITY
    span = _span(lo, hi)
    if op in (">", ">="):
        if value <= lo:
            return 1.0
        if value > hi:
            return 0.0
        return _fraction(value, hi, span)
    if op in ("<", "<="):
        if value >= hi:
            return 1.0
        if value < lo:
            return 0.0
        return _fraction(lo, value, span)
    return DEFAULT_SELECTIVITY


def _orderable(value: Any, lo: Any, hi: Any) -> bool:
    numeric = (int, float)
    if isinstance(value, numeric) and not isinstance(value, bool):
        return (isinstance(lo, numeric) and isinstance(hi, numeric)
                and not math.isnan(float(value)))
    if isinstance(value, str):
        return isinstance(lo, str) and isinstance(hi, str)
    return False


def _span(lo: Any, hi: Any) -> float:
    if isinstance(lo, str):
        return 0.0                      # strings: no linear interpolation
    return float(hi) - float(lo)


def _fraction(lo: Any, hi: Any, span: float) -> float:
    """Fraction of ``[min, max]`` covered by the surviving ``[lo, hi]``."""
    if span <= 0.0:
        return DEFAULT_SELECTIVITY
    return max(0.0, min(1.0, (float(hi) - float(lo)) / span))
