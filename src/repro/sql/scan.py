"""Predicate pushdown seam between the SQL tier and scannable providers.

A :class:`ScanPredicate` is the sargable part of a WHERE clause: the
top-level AND conjuncts of the form ``column <op> literal`` (plus
``BETWEEN`` and ``map['key'] = literal``) that a storage engine can act
on instead of handing over the whole table — a row range of a sorted
table, or whole series via inverted indexes.  Extraction is purely
syntactic and conservative: conjuncts that don't fit stay behind in the
WHERE, and the executor re-applies the **full** WHERE to whatever the
scan returns, so a provider is free to answer with any superset of the
matching rows (the tsdb provider selects no rows by value range).

That superset contract is what makes pushdown bitwise-safe: pruning can
only drop rows that no conjunct combination could keep, and the final
filter is the same code path the unpruned query runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sql.nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Literal,
    Node,
    Subscript,
    flatten_and,
)

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class ScanPredicate:
    """Sargable conjuncts of one WHERE, against one scanned table.

    ``ranges`` holds per-column *closed* intervals ``(column, lo, hi)``
    with ``None`` for an open bound — strict comparisons are widened to
    closed ones, which is safe because the scan result is a superset.
    ``equals`` holds ``column = literal`` for non-numeric literals and
    ``map_equals`` holds ``column['key'] = literal`` map lookups (the
    tsdb ``tag`` column).  Columns are stored lower-cased; a provider
    ignores entries for columns it cannot act on.
    """

    ranges: tuple[tuple[str, float | int | None, float | int | None], ...] = ()
    equals: tuple[tuple[str, Any], ...] = ()
    map_equals: tuple[tuple[str, str, Any], ...] = ()

    def is_empty(self) -> bool:
        return not (self.ranges or self.equals or self.map_equals)

    def range_for(self, column: str
                  ) -> tuple[float | int | None, float | int | None]:
        """The closed interval constraining one column (open when absent)."""
        for name, lo, hi in self.ranges:
            if name == column:
                return lo, hi
        return None, None


@dataclass(frozen=True)
class ScanReport:
    """What a pruned scan actually did, for EXPLAIN and benchmarks.

    ``reads`` is what the scan read, for caches of its results: filters
    a written series passes if the scan read it (or would read it now),
    empty when it read nothing; ``None`` — every series — unless the
    provider pruned by series.
    """

    rows: int
    series_total: int = 0
    series_scanned: int = 0
    chunks_scanned: int = 0
    chunks_pruned: int = 0
    reads: frozenset | None = None

    @property
    def series_pruned(self) -> int:
        return self.series_total - self.series_scanned


def extract_scan_predicate(where: Node | None,
                           qualifier: str | None) -> ScanPredicate | None:
    """The sargable subset of a WHERE clause, or ``None`` when empty.

    ``qualifier`` is the scanned table's alias (or name): qualified
    column references must match it case-insensitively; unqualified
    references are accepted (single-table scope — pushed-down join
    filters always arrive qualified or inside a single-table subquery).
    """
    if where is None:
        return None
    ranges: dict[str, list[float | int | None]] = {}
    equals: list[tuple[str, Any]] = []
    map_equals: list[tuple[str, str, Any]] = []
    for conjunct in flatten_and(where):
        _extract_conjunct(conjunct, qualifier, ranges, equals, map_equals)
    if not (ranges or equals or map_equals):
        return None
    return ScanPredicate(
        ranges=tuple((col, lo, hi) for col, (lo, hi) in ranges.items()),
        equals=tuple(equals),
        map_equals=tuple(map_equals),
    )


def _extract_conjunct(node: Node, qualifier: str | None,
                      ranges: dict, equals: list, map_equals: list) -> None:
    if isinstance(node, Between) and not node.negated:
        column = _own_column(node.expr, qualifier)
        lo = _numeric_literal(node.low)
        hi = _numeric_literal(node.high)
        if column is not None and lo is not None and hi is not None:
            _narrow(ranges, column, lo, hi)
        return
    if not isinstance(node, BinaryOp) or node.op not in _FLIPPED:
        return
    column, op, value = _column_op_literal(node, qualifier)
    if column is None:
        # map['key'] = literal — an exact tag-equality constraint.
        if node.op == "=":
            entry = (_map_equality(node.left, node.right, qualifier)
                     or _map_equality(node.right, node.left, qualifier))
            if entry is not None:
                map_equals.append(entry)
        return
    if op == "=":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            equals.append((column, value))
        else:
            _narrow(ranges, column, value, value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if op in (">", ">="):
            _narrow(ranges, column, value, None)
        else:
            _narrow(ranges, column, None, value)


def _column_op_literal(node: BinaryOp, qualifier: str | None
                       ) -> tuple[str | None, str, Any]:
    """Normalise ``col <op> lit`` / ``lit <op> col`` to ``(col, op, lit)``."""
    column = _own_column(node.left, qualifier)
    value = _usable_literal(node.right)
    if column is not None and value is not _SKIP:
        return column, node.op, value
    column = _own_column(node.right, qualifier)
    value = _usable_literal(node.left)
    if column is not None and value is not _SKIP:
        return column, _FLIPPED[node.op], value
    return None, node.op, None


def _own_column(node: Node, qualifier: str | None) -> str | None:
    if not isinstance(node, ColumnRef):
        return None
    if node.table is not None and qualifier is not None \
            and node.table.lower() != qualifier.lower():
        return None
    if node.table is not None and qualifier is None:
        return None
    return node.name.lower()


_SKIP = object()


def _usable_literal(node: Node) -> Any:
    """The literal's value, or ``_SKIP`` for non-literals / NULL / NaN.

    ``col <op> NULL`` is never true and NaN comparisons are never true
    either; both are left to the residual WHERE rather than encoded as
    constraints.
    """
    if not isinstance(node, Literal):
        return _SKIP
    value = node.value
    if value is None:
        return _SKIP
    if isinstance(value, float) and value != value:
        return _SKIP
    return value


def _numeric_literal(node: Node) -> float | int | None:
    value = _usable_literal(node)
    if value is _SKIP or isinstance(value, bool) \
            or not isinstance(value, (int, float)):
        return None
    return value


def _map_equality(lhs: Node, rhs: Node, qualifier: str | None
                  ) -> tuple[str, str, Any] | None:
    if not isinstance(lhs, Subscript) or not isinstance(lhs.index, Literal):
        return None
    column = _own_column(lhs.base, qualifier)
    key = lhs.index.value
    value = _usable_literal(rhs)
    if column is None or not isinstance(key, str) or value is _SKIP:
        return None
    return (column, key, value)


def _narrow(ranges: dict, column: str,
            lo: float | int | None, hi: float | int | None) -> None:
    """Intersect a new bound into the column's accumulated interval."""
    cur_lo, cur_hi = ranges.get(column, (None, None))
    if lo is not None:
        cur_lo = lo if cur_lo is None else max(cur_lo, lo)
    if hi is not None:
        cur_hi = hi if cur_hi is None else min(cur_hi, hi)
    ranges[column] = [cur_lo, cur_hi]
