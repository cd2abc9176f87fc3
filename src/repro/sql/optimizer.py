"""Logical query optimisation: predicate pushdown (§4.2's theme).

"The declarative nature of the hypothesis query permits various
optimisations that can be deferred to the runtime system."  Alongside the
dense-array and broadcast-join optimisations, this module rewrites query
ASTs before execution:

- **Predicate pushdown** — WHERE conjuncts that reference a single side
  of an INNER/CROSS join are pushed beneath the join, shrinking the
  hashed/iterated inputs.  Pushing below outer joins would change NULL
  semantics, so LEFT/RIGHT/FULL joins are left alone (except that the
  *preserved* side of a LEFT join is safe, which we exploit).  Pushed
  filters also land on base-table scans, where the columnar executor
  can compile them to numpy masks — pushdown is what lets a filter
  under a join still take the vectorized path.
- **Constant folding** — literal-only subexpressions of WHERE
  (``1 + 2 < 4``, ``NOT TRUE``, ``FALSE AND x``) are evaluated once at
  plan time through the exact scalar semantics the executor would apply
  per row (:mod:`repro.sql.semantics`).  Folding is conservative:
  anything that would raise is left in place so the runtime surfaces
  the identical error, and ``x AND FALSE`` is *not* folded because the
  row evaluator would still evaluate (and possibly raise on) ``x``.

The rewrite is purely structural; executing the optimised AST must give
exactly the rows of the original (property-tested).
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.sql.errors import ExecutionError
from repro.sql.nodes import (
    BinaryOp,
    Case,
    ColumnRef,
    FuncCall,
    Join,
    Literal,
    Node,
    Select,
    SelectItem,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    Union,
    flatten_and,
    walk,
)
from repro.sql.functions import is_aggregate
from repro.sql.semantics import sql_and, sql_arith, sql_compare, sql_or


def optimize(stmt: Node) -> Node:
    """Apply all rewrites bottom-up; safe on any statement node."""
    if isinstance(stmt, Union):
        return Union(left=optimize(stmt.left), right=optimize(stmt.right),
                     all=stmt.all, order_by=stmt.order_by,
                     limit=stmt.limit, offset=stmt.offset)
    if isinstance(stmt, Select):
        return _optimize_select(stmt)
    return stmt


def _optimize_select(stmt: Select) -> Select:
    source = _optimize_source(stmt.source)
    where = fold_constants(stmt.where) if stmt.where is not None else None
    stmt = Select(items=stmt.items, source=source, where=where,
                  group_by=stmt.group_by, having=stmt.having,
                  order_by=stmt.order_by, limit=stmt.limit,
                  offset=stmt.offset, distinct=stmt.distinct)
    if stmt.where is None or not isinstance(stmt.source, Join):
        return stmt
    conjuncts = flatten_and(stmt.where)
    remaining: list[Node] = []
    pushed: dict[str, list[Node]] = {}
    qualifier_sides = _qualifier_map(stmt.source)
    for conjunct in conjuncts:
        side = _sole_side(conjunct, qualifier_sides)
        if side is None or _has_aggregate_or_window(conjunct):
            remaining.append(conjunct)
        else:
            pushed.setdefault(side, []).append(conjunct)
    if not pushed:
        return stmt
    new_source = _push_into(stmt.source, pushed)
    new_where = _conjoin(remaining)
    return Select(items=stmt.items, source=new_source, where=new_where,
                  group_by=stmt.group_by, having=stmt.having,
                  order_by=stmt.order_by, limit=stmt.limit,
                  offset=stmt.offset, distinct=stmt.distinct)


def _optimize_source(source: Node | None) -> Node | None:
    if isinstance(source, SubqueryRef):
        return SubqueryRef(query=optimize(source.query),
                           alias=source.alias)
    if isinstance(source, Join):
        return Join(kind=source.kind,
                    left=_optimize_source(source.left),
                    right=_optimize_source(source.right),
                    condition=source.condition)
    return source


def _qualifier_map(source: Node) -> dict[str, str]:
    """Map table qualifiers to leaf identifiers ('alias' -> leaf key)."""
    mapping: dict[str, str] = {}

    def visit(node: Node, pushable: bool) -> None:
        if isinstance(node, TableRef):
            key = node.alias or node.name
            mapping[key.lower()] = key.lower() if pushable else ""
        elif isinstance(node, SubqueryRef):
            if node.alias:
                mapping[node.alias.lower()] = (node.alias.lower()
                                               if pushable else "")
        elif isinstance(node, Join):
            left_ok = pushable and node.kind in ("INNER", "CROSS", "LEFT")
            right_ok = pushable and node.kind in ("INNER", "CROSS")
            visit(node.left, left_ok)
            visit(node.right, right_ok)

    visit(source, True)
    return mapping


def _sole_side(conjunct: Node, qualifier_sides: dict[str, str]
               ) -> str | None:
    """The single pushable leaf a conjunct references, or None."""
    sides: set[str] = set()
    for node in walk(conjunct):
        if isinstance(node, ColumnRef):
            if node.table is None:
                return None          # unqualified: cannot attribute safely
            side = qualifier_sides.get(node.table.lower())
            if not side:
                return None          # unknown alias or non-pushable leaf
            sides.add(side)
    if len(sides) == 1:
        return next(iter(sides))
    return None


def _push_into(source: Node, pushed: dict[str, list[Node]]) -> Node:
    """Wrap targeted leaves in filtering subqueries."""
    if isinstance(source, Join):
        return Join(kind=source.kind,
                    left=_push_into(source.left, pushed),
                    right=_push_into(source.right, pushed),
                    condition=source.condition)
    key = None
    if isinstance(source, TableRef):
        key = (source.alias or source.name).lower()
    elif isinstance(source, SubqueryRef) and source.alias:
        key = source.alias.lower()
    if key is None or key not in pushed:
        return source
    alias = (source.alias if isinstance(source, (TableRef, SubqueryRef))
             else None) or (source.name if isinstance(source, TableRef)
                            else None)
    predicate = _conjoin(_strip_qualifiers(pushed[key], alias))
    inner = Select(items=(SelectItem(expr=Star()),),
                   source=_as_unaliased(source), where=predicate)
    return SubqueryRef(query=inner, alias=alias)


def _as_unaliased(source: Node) -> Node:
    """The leaf with its alias kept (the inner select scopes it)."""
    if isinstance(source, TableRef):
        return TableRef(name=source.name, alias=source.alias)
    return source


def _strip_qualifiers(conjuncts: list[Node], alias: str | None
                      ) -> list[Node]:
    """Qualified refs keep working inside the wrapping subquery because
    the leaf retains its alias; no rewrite needed."""
    return conjuncts


_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "||"})


def fold_constants(node: Node) -> Node:
    """Evaluate literal-only subexpressions at optimisation time.

    Uses the executor's own scalar semantics, so a folded node is
    *definitionally* equivalent to evaluating it per row.  Expressions
    whose evaluation would raise (``1 < 'a'``) are left intact — the
    row evaluator may legitimately never reach them behind an AND/OR
    short circuit, and when it does reach them the error must surface.
    """
    if isinstance(node, BinaryOp):
        left = fold_constants(node.left)
        right = fold_constants(node.right)
        if node.op == "AND":
            # Exact short-circuit: the evaluator never touches the right
            # side after a False left, so folding it away is safe.
            if isinstance(left, Literal) and left.value is False:
                return Literal(value=False)
            if isinstance(left, Literal) and isinstance(right, Literal):
                return Literal(value=sql_and(left.value, right.value))
        elif node.op == "OR":
            if isinstance(left, Literal) and left.value is True:
                return Literal(value=True)
            if isinstance(left, Literal) and isinstance(right, Literal):
                return Literal(value=sql_or(left.value, right.value))
        elif isinstance(left, Literal) and isinstance(right, Literal):
            try:
                if node.op in _COMPARISON_OPS:
                    return Literal(value=sql_compare(
                        node.op, left.value, right.value))
                if node.op in _ARITH_OPS:
                    return Literal(value=sql_arith(
                        node.op, left.value, right.value))
            except ExecutionError:
                pass
        return BinaryOp(op=node.op, left=left, right=right)
    if isinstance(node, UnaryOp):
        operand = fold_constants(node.operand)
        if isinstance(operand, Literal):
            value = operand.value
            if node.op == "NOT":
                return Literal(value=None if value is None else not value)
            if node.op == "-" and value is not None:
                try:
                    return Literal(value=-value)
                except TypeError:
                    pass
            elif node.op == "-":
                return Literal(value=None)
        return UnaryOp(op=node.op, operand=operand)
    return _fold_children(node)


def _fold_children(node: Node) -> Node:
    """Fold inside composite expression nodes without touching the node."""
    if isinstance(node, (Literal, ColumnRef, Star)):
        return node
    if isinstance(node, Case):
        whens = tuple((fold_constants(c), fold_constants(r))
                      for c, r in node.whens)
        default = (fold_constants(node.default)
                   if node.default is not None else None)
        return Case(whens=whens, default=default)
    if not hasattr(node, "__dataclass_fields__"):
        return node
    changes = {}
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node) and not isinstance(value, (Select, Union)):
            changes[f.name] = fold_constants(value)
        elif isinstance(value, tuple) and value and all(
                isinstance(v, Node) for v in value):
            changes[f.name] = tuple(fold_constants(v) for v in value)
    return replace(node, **changes) if changes else node


def _conjoin(conjuncts: list[Node]) -> Node | None:
    result: Node | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp(
            op="AND", left=result, right=conjunct)
    return result


def _has_aggregate_or_window(node: Node) -> bool:
    return any(isinstance(sub, FuncCall)
               and (sub.window is not None or is_aggregate(sub.name))
               for sub in walk(node))


def count_pushed_filters(stmt: Node) -> int:
    """Number of filtering subqueries introduced (for tests/inspection)."""
    count = 0
    nodes = [stmt]
    while nodes:
        node = nodes.pop()
        if isinstance(node, SubqueryRef):
            inner = node.query
            if isinstance(inner, Select) and inner.where is not None \
                    and len(inner.items) == 1 \
                    and isinstance(inner.items[0].expr, Star):
                count += 1
            nodes.append(inner)
        elif isinstance(node, Select):
            if node.source is not None:
                nodes.append(node.source)
        elif isinstance(node, Join):
            nodes.extend([node.left, node.right])
        elif isinstance(node, Union):
            nodes.extend([node.left, node.right])
    return count
