"""AST node definitions for the SQL dialect.

Expressions and statements are plain frozen dataclasses; the executor
pattern-matches on node type.  The dialect covers everything the paper's
Appendix C listings use (map subscripts, SPLIT/CONCAT, BETWEEN, IN,
GROUP BY expressions, FULL OUTER JOIN, UNION, ORDER BY) plus windowed
LAG/LEAD mentioned in section 3.5 for lagged features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class Node:
    """Marker base class for AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Literal(Node):
    value: Any          # int, float, str, bool, or None


@dataclass(frozen=True)
class ColumnRef(Node):
    name: str
    table: str | None = None     # optional qualifier, e.g. Target.timestamp

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Node):
    """``*`` or ``alias.*`` in a projection list."""
    table: str | None = None


@dataclass(frozen=True)
class FuncCall(Node):
    name: str                    # upper-cased function name
    args: tuple[Node, ...] = ()
    distinct: bool = False       # COUNT(DISTINCT x)
    window: "WindowSpec | None" = None


@dataclass(frozen=True)
class WindowSpec(Node):
    partition_by: tuple[Node, ...] = ()
    order_by: tuple["OrderItem", ...] = ()


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str                      # AND OR = <> < <= > >= + - * / % ||
    left: Node
    right: Node


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str                      # NOT, -
    operand: Node


@dataclass(frozen=True)
class Subscript(Node):
    """``base[index]`` — map access (tag['host']) or list index (parts[0])."""
    base: Node
    index: Node


@dataclass(frozen=True)
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class InList(Node):
    expr: Node
    items: tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like(Node):
    expr: Node
    pattern: Node
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Node):
    expr: Node
    negated: bool = False


@dataclass(frozen=True)
class Case(Node):
    """Searched CASE: WHEN cond THEN value ... ELSE default END."""
    whens: tuple[tuple[Node, Node], ...]
    default: Node | None = None


@dataclass(frozen=True)
class Cast(Node):
    expr: Node
    type_name: str               # upper-cased: INT, DOUBLE, STRING, BOOLEAN


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem(Node):
    expr: Node
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Node
    ascending: bool = True


@dataclass(frozen=True)
class TableRef(Node):
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class SubqueryRef(Node):
    query: "Select | Union"
    alias: str | None = None


@dataclass(frozen=True)
class Join(Node):
    kind: str                    # INNER, LEFT, RIGHT, FULL, CROSS
    left: Node                   # TableRef | SubqueryRef | Join
    right: Node
    condition: Node | None = None


@dataclass(frozen=True)
class Select(Node):
    items: tuple[SelectItem, ...]
    source: Node | None = None   # TableRef | SubqueryRef | Join | None
    where: Node | None = None
    group_by: tuple[Node, ...] = ()
    having: Node | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class Union(Node):
    left: Node                   # Select | Union
    right: Node
    all: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None


def walk(node: Node):
    """Yield ``node`` and every expression node beneath it (pre-order)."""
    yield node
    children: tuple = ()
    if isinstance(node, FuncCall):
        children = node.args
        if node.window is not None:
            children = children + node.window.partition_by + tuple(
                item.expr for item in node.window.order_by
            )
    elif isinstance(node, BinaryOp):
        children = (node.left, node.right)
    elif isinstance(node, UnaryOp):
        children = (node.operand,)
    elif isinstance(node, Subscript):
        children = (node.base, node.index)
    elif isinstance(node, Between):
        children = (node.expr, node.low, node.high)
    elif isinstance(node, InList):
        children = (node.expr,) + node.items
    elif isinstance(node, Like):
        children = (node.expr, node.pattern)
    elif isinstance(node, IsNull):
        children = (node.expr,)
    elif isinstance(node, Case):
        children = tuple(x for pair in node.whens for x in pair)
        if node.default is not None:
            children = children + (node.default,)
    elif isinstance(node, Cast):
        children = (node.expr,)
    for child in children:
        yield from walk(child)


def flatten_and(node: Node) -> list[Node]:
    """The conjuncts of a predicate: ``a AND (b AND c)`` -> ``[a, b, c]``."""
    if isinstance(node, BinaryOp) and node.op == "AND":
        return flatten_and(node.left) + flatten_and(node.right)
    return [node]
