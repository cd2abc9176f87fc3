"""SQL executor: evaluates parsed ASTs against a catalog of tables.

The executor implements the relational algebra the paper's pipeline needs
(Figure 4 and Appendix C): scans, filters, projections with expressions,
grouping with aggregates, HAVING, ordering, LIMIT/OFFSET, DISTINCT,
hash equi-joins (inner / left / right / full outer) with residual
predicates, cross joins, UNION (ALL), window functions, and subqueries in
FROM.  NULL handling follows SQL three-valued logic.

Execution is two-tier, and this module is the only place a physical
choice is made — always from relations it already holds, never from an
estimate.  A stage attempts the columnar tier of
:mod:`repro.sql.columnar` whenever its input is column-backed (built
with :meth:`~repro.sql.table.Table.from_columns` — the tsdb adapter
builds these; columnar stages emit them); an INNER
equi-join hashes whichever side is smaller.  The
compiler's ``try_*`` entry points returning ``None`` are the single
definition of what the columnar tier cannot express; the stage then
runs on the row-at-a-time interpreter below, which remains the
semantics reference (the fast path is property-tested to produce
bitwise-identical tables).  Whatever ran is recorded per stage into the
plan, when one is given: actual rows, engine, join build side, scan
report.  Execution itself is identical with and without a plan.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.sql.errors import ExecutionError, SchemaError
from repro.sql.scan import (
    ScanGroups,
    ScanPredicate,
    ScanReport,
    extract_scan_predicate,
    group_keys,
    residual_where,
)
from repro.sql.functions import (
    AGGREGATES,
    SCALARS,
    WINDOW_FUNCTIONS,
    eval_window_function,
    is_aggregate,
    percentile_aggregate,
)
from repro.sql.nodes import (
    Between,
    BinaryOp,
    Case,
    Cast,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    Subscript,
    TableRef,
    UnaryOp,
    Union,
    flatten_and,
    walk,
)
from repro.sql.semantics import (
    like_to_predicate as _like_to_predicate,
    sql_and as _sql_and,
    sql_or as _sql_or,
    sql_arith as _sql_arith,
    sql_cast as _cast,
    sql_compare as _sql_compare,
    sql_negate as _sql_negate,
)
from repro.sql.table import Table, _hashable_row, _column_cells

# The columnar tier only imports this module lazily (inside its
# functions), so the top-level import is cycle-free — and it keeps the
# module-compile cost out of the first query's latency.
from repro.sql import columnar


class _Relation:
    """Intermediate result: rows plus (qualifier, name) column metadata.

    A relation is either row-backed (``rows`` given) or column-backed
    (``coldata`` given: one numpy vector per column).  Column-backed
    relations come from scans of lazily-materialised columnar tables;
    the columnar fast path filters and aggregates them without ever
    building row tuples, while the row interpreter transparently
    materialises ``.rows`` on first access.

    ``groups`` is set on the rows of a grouped scan: clustered by the
    statement's GROUP BY keys instead of in table order.  Only the
    columnar tier reads such a relation (:meth:`in_table_order` hands
    the row interpreter its rows in table order).
    """

    def __init__(self, columns: list[tuple[str | None, str]],
                 rows: list[tuple] | None = None,
                 coldata: list | None = None,
                 groups: ScanGroups | None = None) -> None:
        self.columns = columns
        if rows is None and coldata is None:
            rows = []
        self._rows = rows
        self.coldata = coldata
        self.groups = groups
        self._lookup: dict[tuple[str | None, str], int] = {}
        self._bare: dict[str, list[int]] = {}
        for idx, (qual, name) in enumerate(columns):
            self._lookup[(qual, name.lower())] = idx
            self._bare.setdefault(name.lower(), []).append(idx)

    @property
    def rows(self) -> list[tuple]:
        """Row tuples; materialised lazily for column-backed relations."""
        if self._rows is None:
            cells = [_column_cells(col) for col in self.coldata]
            self._rows = list(zip(*cells)) if cells else []
        return self._rows

    @rows.setter
    def rows(self, value: list[tuple]) -> None:
        self._rows = value

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self.coldata[0]) if self.coldata else 0

    @classmethod
    def from_table(cls, table: Table, qualifier: str | None) -> "_Relation":
        columns = [(qualifier, name) for name in table.columns]
        vectors = table.column_vectors()
        if vectors is not None:
            # Carry the table's cached row tuples too (when it already
            # materialised them) so the row tier never re-runs the
            # column→tuple conversion per query.
            rows = list(table.rows) if table.is_materialised() else None
            return cls(columns, rows=rows, coldata=vectors)
        return cls(columns, list(table.rows))

    def in_table_order(self) -> "_Relation":
        """This relation with a grouped scan's rows back in table order."""
        if self.groups is None:
            return self
        order = np.argsort(self.groups.positions)
        return _Relation(self.columns,
                         coldata=[col[order] for col in self.coldata])

    def resolve(self, name: str, qualifier: str | None) -> int:
        """Resolve a column reference to a row index."""
        key = name.lower()
        if qualifier is not None:
            idx = self._lookup.get((qualifier, key))
            if idx is None:
                # Case-insensitive qualifier match.
                for (qual, col), i in self._lookup.items():
                    if qual and qual.lower() == qualifier.lower() and col == key:
                        return i
                raise SchemaError(f"unknown column {qualifier}.{name}")
            return idx
        indexes = self._bare.get(key, [])
        if len(indexes) == 1:
            return indexes[0]
        if not indexes:
            raise SchemaError(
                f"unknown column {name!r}; available: "
                f"{[f'{q}.{c}' if q else c for q, c in self.columns]}"
            )
        raise SchemaError(f"ambiguous column {name!r}; qualify it")

    def columns_for(self, qualifier: str | None) -> list[int]:
        """Column indexes belonging to one qualifier (or all for None)."""
        if qualifier is None:
            return list(range(len(self.columns)))
        indexes = [i for i, (qual, _) in enumerate(self.columns)
                   if qual is not None and qual.lower() == qualifier.lower()]
        if not indexes:
            raise SchemaError(f"unknown table alias {qualifier!r}")
        return indexes


class _SortKey:
    """Total-order wrapper: NULLs first, then by (type-class, value).

    NaN gets its own rank bucket after every number: ``float('nan')``
    compares false against everything (including itself), so ranking it
    through ``float(value)`` would make the ordering non-transitive and
    the resulting sort order input-order-dependent.  All NaNs compare
    equal to each other here and greater than any non-NaN number.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _rank(self) -> tuple:
        value = self.value
        if value is None:
            return (0, 0, 0.0)
        if isinstance(value, bool):
            return (1, 0, float(value))
        if isinstance(value, (int, float)):
            as_float = float(value)
            if math.isnan(as_float):
                return (1, 1, 0.0)
            return (1, 0, as_float)
        if isinstance(value, str):
            return (2, value)
        return (3, str(value))

    def __lt__(self, other: "_SortKey") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self._rank() == other._rank()


def render(node: Node) -> str:
    """Render an expression back to compact SQL-ish text (used for naming)."""
    if isinstance(node, Literal):
        if isinstance(node.value, str):
            return f"'{node.value}'"
        return str(node.value)
    if isinstance(node, ColumnRef):
        return node.qualified
    if isinstance(node, Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, FuncCall):
        inner = ", ".join(render(a) for a in node.args)
        if node.distinct:
            inner = f"DISTINCT {inner}"
        return f"{node.name}({inner})"
    if isinstance(node, BinaryOp):
        return f"({render(node.left)} {node.op} {render(node.right)})"
    if isinstance(node, UnaryOp):
        return f"({node.op} {render(node.operand)})"
    if isinstance(node, Subscript):
        return f"{render(node.base)}[{render(node.index)}]"
    if isinstance(node, Cast):
        return f"CAST({render(node.expr)} AS {node.type_name})"
    if isinstance(node, Case):
        return "CASE...END"
    if isinstance(node, (Between, InList, Like, IsNull)):
        return f"({type(node).__name__.lower()})"
    return type(node).__name__.lower()


def _call_builtin(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    """Call a built-in function; a bad argument is the query's error."""
    try:
        return fn(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ExecutionError(f"{name} failed: {exc}") from exc


class Executor:
    """Evaluates statements against a table resolver and a UDF registry.

    ``columnar=True`` (the default) enables the vectorized fast path for
    column-backed relations; ``columnar=False`` forces every stage
    through the row-at-a-time interpreter — the reference the fast path
    is verified against.

    ``plan`` (a :class:`repro.sql.planner.Plan` built for the *same* AST
    objects) is write-only here: the executor records each stage's
    actual rows, engine and scan report into it so EXPLAIN shows what
    ran.  ``scan_table(name, predicate)`` is the predicate-pushdown
    hook: given the sargable part of a WHERE it may return a pruned
    ``(table, report)`` superset for a TableRef scan.  The row tier
    re-applies the full WHERE to it; the columnar tier only what the
    report's exact constraints do not imply (:func:`residual_where`),
    and asks for rows clustered by series-constant GROUP BY keys, which
    its aggregate then groups without a sort.
    """

    def __init__(self, resolve_table: Callable[[str], Table],
                 udfs: dict[str, Callable[..., Any]] | None = None,
                 columnar: bool = True,
                 plan: Any = None,
                 scan_table: Callable[
                     [str, ScanPredicate],
                     "tuple[Table, ScanReport] | None"] | None = None,
                 ) -> None:
        self._resolve_table = resolve_table
        self._udfs = {name.upper(): fn for name, fn in (udfs or {}).items()}
        self._columnar = columnar
        self._plan = plan
        self._scan_table = scan_table

    def _record(self, node: Node, role: str, rows: int,
                engine: str | None = None, note: str = "") -> None:
        if self._plan is not None:
            self._plan.record(node, role, rows, engine, note)

    def _vectorizes(self, *inputs: _Relation) -> bool:
        """The engine choice: can the columnar tier read this stage's input?"""
        return self._columnar \
            and all(rel.coldata is not None for rel in inputs)

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def execute(self, stmt: Node) -> Table:
        if isinstance(stmt, Select):
            return self._execute_select(stmt)
        if isinstance(stmt, Union):
            return self._execute_union(stmt)
        raise ExecutionError(f"cannot execute node of type {type(stmt).__name__}")

    def _execute_union(self, stmt: Union) -> Table:
        left = self.execute(stmt.left)
        right = self.execute(stmt.right)
        merged = left.union_all(right)
        if not stmt.all:
            merged = merged.distinct()
        if stmt.order_by:
            relation = _Relation.from_table(merged, None)
            order = self._order_permutation(relation, stmt.order_by, None)
            merged = Table(merged.columns, [merged.rows[i] for i in order])
        if stmt.offset:
            merged = merged.slice_rows(stmt.offset, None)
        if stmt.limit is not None:
            merged = merged.limit(stmt.limit)
        self._record(stmt, "union", len(merged))
        return merged

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _execute_select(self, stmt: Select) -> Table:
        relation, where = self._select_source(stmt)
        if stmt.where is not None:
            self._reject_aggregates(stmt.where, "WHERE")
        if where is not None:
            filtered = (columnar.try_filter(relation, where)
                        if self._vectorizes(relation) else None)
            engine = "columnar"
            if filtered is None:
                engine = "row"
                relation = relation.in_table_order()
                rows = [row for row in relation.rows
                        if self._eval(where, relation, row) is True]
                filtered = _Relation(relation.columns, rows)
            relation = filtered
            self._record(stmt, "filter", len(relation), engine,
                         "" if where is stmt.where
                         else f"residual={render(where)}")
        elif stmt.where is not None:
            self._record(stmt, "filter", len(relation), None,
                         "applied by scan")

        aggregate_query = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None)

        vectorize = self._vectorizes(relation)
        engine = "columnar"
        if aggregate_query:
            # One operator groups, applies HAVING and sorts its output:
            # its engine is recorded once, on the Aggregate stage.
            aggregated = (columnar.try_aggregate(stmt, relation)
                          if vectorize else None)
            if aggregated is None:
                engine = "row"
                aggregated = self._execute_aggregate(
                    stmt, relation.in_table_order())
            table, n_groups = aggregated
            self._record(stmt, "aggregate", n_groups, engine)
            self._record(stmt, "having", len(table))
            project_engine = None
        else:
            # Likewise one operator projects, windows and sorts: its
            # engine is recorded once, on the Project stage.
            table = (columnar.try_project(stmt, relation)
                     if vectorize else None)
            if table is None:
                engine = "row"
                table = self._execute_plain(stmt, relation)
            self._record(stmt, "window", len(table))
            project_engine = engine
        self._record(stmt, "sort", len(table))

        if stmt.distinct:
            table = table.distinct()
        if stmt.offset:
            table = table.slice_rows(stmt.offset, None)
        if stmt.limit is not None:
            table = table.limit(stmt.limit)
        self._record(stmt, "project", len(table), project_engine)
        return table

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _select_source(self, stmt: Select) -> tuple[_Relation, Node | None]:
        """A SELECT's input, pruned by a scan where one can, and the part
        of its WHERE left to apply."""
        if isinstance(stmt.source, TableRef):
            pruned = self._scan_pruned(stmt.source, stmt)
            if pruned is not None:
                return pruned
        return self._build_source(stmt.source), stmt.where

    def _build_source(self, source: Node | None) -> _Relation:
        if source is None:
            return _Relation([], [()])  # one empty row: SELECT 1+1
        if isinstance(source, TableRef):
            qualifier = source.alias or source.name
            table = self._resolve_table(source.name)
            self._record(source, "scan", len(table))
            return _Relation.from_table(table, qualifier)
        if isinstance(source, SubqueryRef):
            table = self.execute(source.query)
            self._record(source, "subquery", len(table))
            return _Relation.from_table(table, source.alias)
        if isinstance(source, Join):
            return self._execute_join(source)
        raise ExecutionError(f"unsupported FROM element {type(source).__name__}")

    def _scan_pruned(self, source: TableRef, stmt: Select
                     ) -> tuple[_Relation, Node | None] | None:
        """Pushed-down scan of a scannable provider and the WHERE left
        to apply, or ``None``.

        The provider returns a superset of the rows the WHERE keeps,
        and names the constraints every row it returns satisfies.  The
        row tier re-applies the complete WHERE to rows in the full
        table's order, so results are identical to scanning everything.
        The columnar tier also asks for rows clustered by the GROUP BY
        keys, and re-applies only the residual WHERE.
        """
        if self._scan_table is None:
            return None
        qualifier = source.alias or source.name
        predicate = (extract_scan_predicate(stmt.where, qualifier)
                     or ScanPredicate())
        if self._columnar and stmt.group_by:
            predicate = dataclasses.replace(
                predicate, group_by=group_keys(stmt.group_by, qualifier))
        if predicate.is_empty() and not predicate.group_by:
            return None
        pruned = self._scan_table(source.name, predicate)
        if pruned is None:
            return None
        table, report = pruned
        if self._plan is not None:
            self._plan.record_scan(source, report)
        relation = _Relation.from_table(table, qualifier)
        if not self._columnar or relation.coldata is None:
            return relation, stmt.where
        relation.groups = report.groups
        return relation, (None if stmt.where is None else
                          residual_where(stmt.where, qualifier, report.exact))

    def _execute_join(self, join: Join) -> _Relation:
        left = self._build_source(join.left)
        right = self._build_source(join.right)
        combined_columns = left.columns + right.columns
        combined = _Relation(combined_columns, [])
        left_width = len(left.columns)
        right_nulls = (None,) * len(right.columns)
        left_nulls = (None,) * left_width

        if join.kind == "CROSS":
            rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
            self._record(join, "join", len(rows), "row")
            return _Relation(combined_columns, rows)

        equi_pairs, residual = self._extract_equi_keys(
            join.condition, left, right, combined
        )
        if equi_pairs and self._vectorizes(left, right):
            # Hash the smaller side (INNER only); try_join emits the
            # same row order either way, so the choice never shows.
            build = ("left" if join.kind == "INNER"
                     and len(left) < len(right) else "right")
            joined = columnar.try_join(join.kind, left, right,
                                       equi_pairs, residual, build=build)
            if joined is not None:
                self._record(join, "join", len(joined), "columnar",
                             "build=left" if build == "left" else "")
                return joined
        rows: list[tuple] = []
        matched_right: set[int] = set()

        if equi_pairs:
            # Hash join: build on the right side.
            buckets: dict[tuple, list[int]] = {}
            for r_idx, rrow in enumerate(right.rows):
                key = tuple(_hashable_row(
                    tuple(self._eval(expr, right, rrow) for expr in
                          [pair[1] for pair in equi_pairs])
                ))
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(r_idx)
            for lrow in left.rows:
                key = tuple(_hashable_row(
                    tuple(self._eval(expr, left, lrow) for expr in
                          [pair[0] for pair in equi_pairs])
                ))
                matched = False
                if not any(part is None for part in key):
                    for r_idx in buckets.get(key, ()):
                        candidate = lrow + right.rows[r_idx]
                        if residual is None or self._eval(
                                residual, combined, candidate) is True:
                            rows.append(candidate)
                            matched_right.add(r_idx)
                            matched = True
                if not matched and join.kind in ("LEFT", "FULL"):
                    rows.append(lrow + right_nulls)
        else:
            for lrow in left.rows:
                matched = False
                for r_idx, rrow in enumerate(right.rows):
                    candidate = lrow + rrow
                    if join.condition is None or self._eval(
                            join.condition, combined, candidate) is True:
                        rows.append(candidate)
                        matched_right.add(r_idx)
                        matched = True
                if not matched and join.kind in ("LEFT", "FULL"):
                    rows.append(lrow + right_nulls)

        if join.kind in ("RIGHT", "FULL"):
            for r_idx, rrow in enumerate(right.rows):
                if r_idx not in matched_right:
                    rows.append(left_nulls + rrow)
        self._record(join, "join", len(rows), "row")
        return _Relation(combined_columns, rows)

    def _extract_equi_keys(self, condition: Node | None, left: _Relation,
                           right: _Relation, combined: _Relation
                           ) -> tuple[list[tuple[Node, Node]], Node | None]:
        """Split an ON condition into hashable equi-pairs and a residual."""
        if condition is None:
            return [], None
        conjuncts = flatten_and(condition)
        pairs: list[tuple[Node, Node]] = []
        residual: list[Node] = []
        for conj in conjuncts:
            pair = self._try_equi_pair(conj, left, right)
            if pair is not None:
                pairs.append(pair)
            else:
                residual.append(conj)
        residual_node: Node | None = None
        for conj in residual:
            residual_node = (conj if residual_node is None
                             else BinaryOp(op="AND", left=residual_node,
                                           right=conj))
        return pairs, residual_node

    def _try_equi_pair(self, node: Node, left: _Relation,
                       right: _Relation) -> tuple[Node, Node] | None:
        if not (isinstance(node, BinaryOp) and node.op == "="):
            return None
        left_side = self._side_of(node.left, left, right)
        right_side = self._side_of(node.right, left, right)
        if left_side == "L" and right_side == "R":
            return (node.left, node.right)
        if left_side == "R" and right_side == "L":
            return (node.right, node.left)
        return None

    def _side_of(self, expr: Node, left: _Relation,
                 right: _Relation) -> str | None:
        """Classify an expression as depending only on L, only on R, or mixed."""
        sides: set[str] = set()
        for sub in walk(expr):
            if isinstance(sub, ColumnRef):
                on_left = self._binds(sub, left)
                on_right = self._binds(sub, right)
                if on_left and not on_right:
                    sides.add("L")
                elif on_right and not on_left:
                    sides.add("R")
                else:
                    return None
            elif isinstance(sub, FuncCall) and (
                    sub.window is not None or is_aggregate(sub.name)):
                return None
        if sides == {"L"}:
            return "L"
        if sides == {"R"}:
            return "R"
        return None

    @staticmethod
    def _binds(ref: ColumnRef, relation: _Relation) -> bool:
        try:
            relation.resolve(ref.name, ref.table)
            return True
        except SchemaError:
            return False

    # ------------------------------------------------------------------
    # Plain (non-aggregate) select
    # ------------------------------------------------------------------
    def _execute_plain(self, stmt: Select, relation: _Relation) -> Table:
        items = self._expand_stars(stmt.items, relation)
        window_cache = self._compute_windows(items, relation)
        columns = self._dedupe_columns(
            [self._output_name(item, idx) for idx, item in enumerate(items)]
        )
        out_rows: list[tuple] = []
        for row_idx, row in enumerate(relation.rows):
            out_rows.append(tuple(
                self._eval(item.expr, relation, row,
                           window_cache=window_cache, row_index=row_idx)
                for item in items
            ))
        if stmt.order_by:
            order = self._order_permutation(
                relation, stmt.order_by, (columns, out_rows)
            )
            out_rows = [out_rows[i] for i in order]
        return Table(columns, out_rows)

    @staticmethod
    def _expand_stars(items: Sequence[SelectItem],
                      relation: _Relation) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                for idx in relation.columns_for(item.expr.table):
                    qual, name = relation.columns[idx]
                    expanded.append(
                        SelectItem(expr=ColumnRef(name=name, table=qual),
                                   alias=name)
                    )
            else:
                expanded.append(item)
        return expanded

    def _compute_windows(self, items: Sequence[SelectItem],
                         relation: _Relation) -> dict[int, list[Any]]:
        """Pre-compute every windowed function column (keyed by node id)."""
        cache: dict[int, list[Any]] = {}
        for item in items:
            for node in walk(item.expr):
                if isinstance(node, FuncCall) and node.window is not None:
                    cache[id(node)] = self._window_column(node, relation)
        return cache

    def _window_column(self, call: FuncCall, relation: _Relation) -> list[Any]:
        if call.name not in WINDOW_FUNCTIONS:
            raise ExecutionError(
                f"{call.name} cannot be used as a window function"
            )
        n = len(relation.rows)
        spec = call.window
        assert spec is not None
        partition_keys = [
            tuple(_hashable_row(tuple(
                self._eval(expr, relation, row) for expr in spec.partition_by
            )))
            for row in relation.rows
        ] if spec.partition_by else [()] * n
        partitions: dict[tuple, list[int]] = {}
        for idx, key in enumerate(partition_keys):
            partitions.setdefault(key, []).append(idx)
        result: list[Any] = [None] * n
        for indexes in partitions.values():
            if spec.order_by:
                ordered = self._apply_directions(indexes, spec.order_by,
                                                 relation)
            else:
                ordered = indexes
            arg_rows = [
                tuple(self._eval(arg, relation, relation.rows[i])
                      for arg in call.args)
                for i in ordered
            ]
            for pos, i in enumerate(ordered):
                result[i] = _call_builtin(call.name, eval_window_function,
                                          call.name, arg_rows, pos)
        return result

    def _apply_directions(self, indexes: list[int],
                          order_by: Sequence[OrderItem],
                          relation: _Relation) -> list[int]:
        def key(i: int) -> tuple:
            parts = []
            for item in order_by:
                wrapped = _SortKey(self._eval(item.expr, relation,
                                              relation.rows[i]))
                parts.append(wrapped if item.ascending
                             else _Reversed(wrapped))
            return tuple(parts)
        return sorted(indexes, key=key)

    # ------------------------------------------------------------------
    # Aggregate select
    # ------------------------------------------------------------------
    def _execute_aggregate(self, stmt: Select, relation: _Relation
                           ) -> tuple[Table, int]:
        """The result table and the number of groups before HAVING."""
        items = list(stmt.items)
        for item in items:
            if isinstance(item.expr, Star):
                raise ExecutionError("SELECT * is not allowed with GROUP BY")
        groups: dict[tuple, list[tuple]] = {}
        if stmt.group_by:
            for row in relation.rows:
                key = tuple(_hashable_row(tuple(
                    self._eval(expr, relation, row) for expr in stmt.group_by
                )))
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = list(relation.rows)
            if not relation.rows:
                groups[()] = []

        columns = self._dedupe_columns(
            [self._output_name(item, idx) for idx, item in enumerate(items)]
        )
        out_rows: list[tuple] = []
        group_order_values: list[tuple] = []
        for key, rows in groups.items():
            env_row = rows[0] if rows else None
            out_row = tuple(
                self._eval_aggregate_expr(item.expr, relation, rows, env_row)
                for item in items
            )
            if stmt.having is not None:
                keep = self._eval_aggregate_expr(
                    stmt.having, relation, rows, env_row,
                    output=(columns, out_row),
                )
                if keep is not True:
                    continue
            out_rows.append(out_row)
            if stmt.order_by:
                group_order_values.append(tuple(
                    _SortKey(self._eval_aggregate_expr(
                        o.expr, relation, rows, env_row,
                        output=(columns, out_row)))
                    for o in stmt.order_by
                ))
        if stmt.order_by:
            directions = [o.ascending for o in stmt.order_by]
            order = sorted(
                range(len(out_rows)),
                key=lambda i: tuple(
                    v if asc else _Reversed(v)
                    for v, asc in zip(group_order_values[i], directions)
                ),
            )
            out_rows = [out_rows[i] for i in order]
        return Table(columns, out_rows), len(groups)

    def _eval_aggregate_expr(self, expr: Node, relation: _Relation,
                             rows: list[tuple], env_row: tuple | None,
                             output: tuple[list[str], tuple] | None = None
                             ) -> Any:
        """Evaluate an expression in aggregate context for one group."""
        if isinstance(expr, FuncCall) and is_aggregate(expr.name):
            return self._eval_aggregate_call(expr, relation, rows)
        if isinstance(expr, ColumnRef) and output is not None:
            columns, out_row = output
            lowered = expr.name.lower()
            for idx, col in enumerate(columns):
                if col.lower() == lowered:
                    return out_row[idx]
        if isinstance(expr, (Literal,)):
            return expr.value
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                return _sql_and(
                    self._eval_aggregate_expr(expr.left, relation, rows,
                                              env_row, output),
                    self._eval_aggregate_expr(expr.right, relation, rows,
                                              env_row, output),
                )
            if expr.op == "OR":
                return _sql_or(
                    self._eval_aggregate_expr(expr.left, relation, rows,
                                              env_row, output),
                    self._eval_aggregate_expr(expr.right, relation, rows,
                                              env_row, output),
                )
            left = self._eval_aggregate_expr(expr.left, relation, rows,
                                             env_row, output)
            right = self._eval_aggregate_expr(expr.right, relation, rows,
                                              env_row, output)
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return _sql_compare(expr.op, left, right)
            return _sql_arith(expr.op, left, right)
        if isinstance(expr, UnaryOp):
            value = self._eval_aggregate_expr(expr.operand, relation, rows,
                                              env_row, output)
            if expr.op == "NOT":
                return None if value is None else (not value)
            return _sql_negate(value)
        if isinstance(expr, FuncCall):
            args = [self._eval_aggregate_expr(a, relation, rows, env_row,
                                              output)
                    for a in expr.args]
            return self._call_scalar(expr.name, args)
        if isinstance(expr, Cast):
            value = self._eval_aggregate_expr(expr.expr, relation, rows,
                                              env_row, output)
            return _cast(value, expr.type_name)
        if isinstance(expr, Case):
            for cond, result in expr.whens:
                if self._eval_aggregate_expr(cond, relation, rows, env_row,
                                             output) is True:
                    return self._eval_aggregate_expr(result, relation, rows,
                                                     env_row, output)
            if expr.default is not None:
                return self._eval_aggregate_expr(expr.default, relation,
                                                 rows, env_row, output)
            return None
        # Fall back to per-row evaluation on the group's first row
        # (the usual case: a GROUP BY key expression).
        if env_row is None:
            return None
        return self._eval(expr, relation, env_row)

    def _eval_aggregate_call(self, call: FuncCall, relation: _Relation,
                             rows: list[tuple]) -> Any:
        if call.name == "PERCENTILE":
            if len(call.args) != 2:
                raise ExecutionError("PERCENTILE expects (expr, fraction)")
            if not rows:
                return None          # the empty group has no first row
            values = self._aggregate_values(call.args[0], relation, rows,
                                            call.distinct)
            fraction = self._eval(call.args[1], relation, rows[0])
            try:
                fraction = float(fraction)
            except (TypeError, ValueError):
                raise ExecutionError(
                    "PERCENTILE fraction must be a number in [0, 1], "
                    f"got {fraction!r}") from None
            return _call_builtin(call.name, percentile_aggregate,
                                 values, fraction)
        fn = AGGREGATES[call.name]
        if call.name == "COUNT" and (not call.args
                                     or isinstance(call.args[0], Star)):
            return len(rows)
        if len(call.args) != 1:
            raise ExecutionError(f"{call.name} expects exactly one argument")
        values = self._aggregate_values(call.args[0], relation, rows,
                                        call.distinct)
        return _call_builtin(call.name, fn, values)

    def _aggregate_values(self, arg: Node, relation: _Relation,
                          rows: list[tuple], distinct: bool) -> list[Any]:
        values = [self._eval(arg, relation, row) for row in rows]
        values = [v for v in values if v is not None]
        if distinct:
            seen: set = set()
            unique: list[Any] = []
            for v in values:
                key = _hashable_row((v,))
                if key not in seen:
                    seen.add(key)
                    unique.append(v)
            values = unique
        return values

    # ------------------------------------------------------------------
    # Row-level expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Node, relation: _Relation, row: tuple,
              window_cache: dict[int, list[Any]] | None = None,
              row_index: int | None = None) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            idx = relation.resolve(expr.name, expr.table)
            return row[idx]
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                left = self._eval(expr.left, relation, row, window_cache,
                                  row_index)
                if left is False:
                    return False
                right = self._eval(expr.right, relation, row, window_cache,
                                   row_index)
                return _sql_and(left, right)
            if expr.op == "OR":
                left = self._eval(expr.left, relation, row, window_cache,
                                  row_index)
                if left is True:
                    return True
                right = self._eval(expr.right, relation, row, window_cache,
                                   row_index)
                return _sql_or(left, right)
            left = self._eval(expr.left, relation, row, window_cache,
                              row_index)
            right = self._eval(expr.right, relation, row, window_cache,
                               row_index)
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return _sql_compare(expr.op, left, right)
            return _sql_arith(expr.op, left, right)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.operand, relation, row, window_cache,
                               row_index)
            if expr.op == "NOT":
                return None if value is None else (not value)
            return _sql_negate(value)
        if isinstance(expr, Subscript):
            base = self._eval(expr.base, relation, row, window_cache,
                              row_index)
            index = self._eval(expr.index, relation, row, window_cache,
                               row_index)
            if base is None:
                return None
            if isinstance(base, dict):
                return base.get(index)
            if isinstance(base, (list, tuple)):
                i = int(index)
                if -len(base) <= i < len(base):
                    return base[i]
                return None
            raise ExecutionError(
                f"cannot subscript value of type {type(base).__name__}"
            )
        if isinstance(expr, Between):
            value = self._eval(expr.expr, relation, row, window_cache,
                               row_index)
            low = self._eval(expr.low, relation, row, window_cache, row_index)
            high = self._eval(expr.high, relation, row, window_cache,
                              row_index)
            result = _sql_and(_sql_compare(">=", value, low),
                              _sql_compare("<=", value, high))
            if expr.negated and result is not None:
                return not result
            return result
        if isinstance(expr, InList):
            value = self._eval(expr.expr, relation, row, window_cache,
                               row_index)
            if value is None:
                return None
            found = False
            saw_null = False
            for item in expr.items:
                candidate = self._eval(item, relation, row, window_cache,
                                       row_index)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    found = True
                    break
            if found:
                return not expr.negated
            if saw_null:
                return None
            return expr.negated
        if isinstance(expr, Like):
            value = self._eval(expr.expr, relation, row, window_cache,
                               row_index)
            pattern = self._eval(expr.pattern, relation, row, window_cache,
                                 row_index)
            if value is None or pattern is None:
                return None
            result = _like_to_predicate(str(pattern))(str(value))
            return (not result) if expr.negated else result
        if isinstance(expr, IsNull):
            value = self._eval(expr.expr, relation, row, window_cache,
                               row_index)
            result = value is None
            return (not result) if expr.negated else result
        if isinstance(expr, Case):
            for cond, result in expr.whens:
                if self._eval(cond, relation, row, window_cache,
                              row_index) is True:
                    return self._eval(result, relation, row, window_cache,
                                      row_index)
            if expr.default is not None:
                return self._eval(expr.default, relation, row, window_cache,
                                  row_index)
            return None
        if isinstance(expr, Cast):
            return _cast(self._eval(expr.expr, relation, row, window_cache,
                                    row_index), expr.type_name)
        if isinstance(expr, FuncCall):
            if expr.window is not None:
                if window_cache is None or id(expr) not in window_cache:
                    raise ExecutionError(
                        f"window function {expr.name} in unsupported position"
                    )
                assert row_index is not None
                return window_cache[id(expr)][row_index]
            if is_aggregate(expr.name):
                raise ExecutionError(
                    f"aggregate {expr.name} not allowed in this context"
                )
            args = [self._eval(a, relation, row, window_cache, row_index)
                    for a in expr.args]
            return self._call_scalar(expr.name, args)
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in SELECT or COUNT(*)")
        raise ExecutionError(f"cannot evaluate node {type(expr).__name__}")

    def _call_scalar(self, name: str, args: list[Any]) -> Any:
        fn = SCALARS.get(name)
        if fn is not None:
            return _call_builtin(name, fn, *args)
        udf = self._udfs.get(name)
        if udf is not None:
            try:
                return udf(*args)
            except Exception as exc:  # surface UDF bugs with context
                raise ExecutionError(f"UDF {name} raised: {exc}") from exc
        raise ExecutionError(f"unknown function {name}")

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _order_permutation(self, relation: _Relation,
                           order_by: Sequence[OrderItem],
                           output: tuple[list[str], list[tuple]] | None
                           ) -> list[int]:
        n = len(relation.rows) if output is None else len(output[1])

        def eval_order_expr(item: OrderItem, i: int) -> Any:
            expr = item.expr
            # Positional: ORDER BY 2
            if isinstance(expr, Literal) and isinstance(expr.value, int) \
                    and output is not None:
                pos = expr.value - 1
                if 0 <= pos < len(output[0]):
                    return output[1][i][pos]
            # Alias reference into the output row.
            if isinstance(expr, ColumnRef) and expr.table is None \
                    and output is not None:
                lowered = expr.name.lower()
                for idx, col in enumerate(output[0]):
                    if col.lower() == lowered:
                        return output[1][i][idx]
            return self._eval(expr, relation, relation.rows[i])

        def key(i: int) -> tuple:
            parts = []
            for item in order_by:
                wrapped = _SortKey(eval_order_expr(item, i))
                parts.append(wrapped if item.ascending else _Reversed(wrapped))
            return tuple(parts)

        return sorted(range(n), key=key)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _dedupe_columns(columns: list[str]) -> list[str]:
        """Disambiguate duplicate output names (a.name, b.name -> name_2)."""
        seen: dict[str, int] = {}
        out: list[str] = []
        for name in columns:
            count = seen.get(name, 0) + 1
            seen[name] = count
            out.append(name if count == 1 else f"{name}_{count}")
        return out

    @staticmethod
    def _output_name(item: SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.name
        if isinstance(item.expr, Subscript) and isinstance(
                item.expr.index, Literal):
            return f"{render(item.expr.base)}[{item.expr.index.value}]"
        return render(item.expr)

    def _contains_aggregate(self, expr: Node) -> bool:
        return any(
            isinstance(node, FuncCall) and node.window is None
            and is_aggregate(node.name)
            for node in walk(expr)
        )

    def _reject_aggregates(self, expr: Node, clause: str) -> None:
        if self._contains_aggregate(expr):
            raise ExecutionError(f"aggregates are not allowed in {clause}")


@functools.total_ordering
class _Reversed:
    """Wrapper inverting comparison order, for DESC sort keys."""

    __slots__ = ("inner",)

    def __init__(self, inner: _SortKey) -> None:
        self.inner = inner

    def __lt__(self, other: "_Reversed") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.inner == other.inner
