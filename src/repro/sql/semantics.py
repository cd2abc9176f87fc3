"""Scalar SQL value semantics shared by every execution tier.

Three-valued logic (AND/OR over ``True``/``False``/``None``),
comparisons, arithmetic, LIKE compilation, and CAST live here so the
row-at-a-time executor, the columnar mask compiler
(:mod:`repro.sql.columnar`) and the optimizer's constant folder
(:mod:`repro.sql.optimizer`) all evaluate *the same functions*.  The
columnar tier's bitwise-parity guarantee leans on this: wherever it
cannot express an operation as a numpy kernel with identical results,
it calls these scalars element-wise, so any row the fast path touches
is computed exactly as the row path would have computed it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sql.errors import ExecutionError


def sql_and(left: Any, right: Any) -> Any:
    """Kleene AND: False dominates, otherwise NULL propagates."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def sql_or(left: Any, right: Any) -> Any:
    """Kleene OR: True dominates, otherwise NULL propagates."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return bool(left) or bool(right)


def sql_compare(op: str, left: Any, right: Any) -> Any:
    """SQL comparison: NULL if either side is NULL, else Python compare."""
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise ExecutionError(
            f"cannot compare {type(left).__name__} {op} {type(right).__name__}"
        ) from None
    raise ExecutionError(f"unknown comparison operator {op}")


def sql_arith(op: str, left: Any, right: Any) -> Any:
    """SQL arithmetic: NULL-propagating, ``/ 0`` and ``% 0`` yield NULL."""
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None
            return left / right
        if op == "%":
            if right == 0:
                return None
            return left % right
    except TypeError:
        raise ExecutionError(
            f"cannot apply {op} to {type(left).__name__} and "
            f"{type(right).__name__}"
        ) from None
    raise ExecutionError(f"unknown arithmetic operator {op}")


def sql_negate(value: Any) -> Any:
    """SQL unary minus: NULL-propagating."""
    if value is None:
        return None
    try:
        return -value
    except TypeError:
        raise ExecutionError(
            f"cannot apply unary - to {type(value).__name__}") from None


def like_to_predicate(pattern: str) -> Callable[[str], bool]:
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a matcher."""
    import re
    regex = "^"
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    regex += "$"
    compiled = re.compile(regex, re.DOTALL)
    return lambda text: compiled.match(text) is not None


def sql_cast(value: Any, type_name: str) -> Any:
    """CAST a value to a named SQL type; NULL passes through."""
    if value is None:
        return None
    try:
        if type_name in ("INT", "INTEGER", "BIGINT", "LONG"):
            return int(float(value))
        if type_name in ("DOUBLE", "FLOAT", "REAL"):
            return float(value)
        if type_name in ("STRING", "VARCHAR", "TEXT"):
            return str(value)
        if type_name in ("BOOLEAN", "BOOL"):
            if isinstance(value, str):
                return value.strip().lower() in ("true", "t", "1", "yes")
            return bool(value)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(
            f"cannot cast {value!r} to {type_name}: {exc}"
        ) from exc
    raise ExecutionError(f"unknown cast target type {type_name}")
