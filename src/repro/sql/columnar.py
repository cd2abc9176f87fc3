"""Columnar SQL execution: numpy masks, vector selects, segmented aggregates.

This module is the fast path :class:`~repro.sql.executor.Executor` tries
first when a stage's input is a column-backed relation (a table built
with :meth:`~repro.sql.table.Table.from_columns`, e.g. the tsdb
adapter's output).  Four entry points mirror the executor's stages:

- :func:`try_filter` — compiles a WHERE tree to a three-valued-logic
  pair of boolean masks (``true``, ``null``) over whole column vectors
  and gathers every column once, instead of evaluating the expression
  tree per row.
- :func:`try_project` — compiles each SELECT item to a column vector;
  bare column references are zero-copy views of the scanned data.
  Window functions run as vectorized partition-segment scans (one
  lexsort by partition code + ORDER BY keys, then the segmented
  kernels of :mod:`repro.sql.functions`), and ORDER BY becomes one
  ``np.lexsort`` over dense sort codes that encode the row path's
  ``_SortKey`` type-rank ordering.
- :func:`try_aggregate` — compiles the GROUP BY keys (any row-local
  expressions: ``tag['tenant']``, ``k % 2``) to vectors, factorizes
  each into codes and combines them by mixed radix, stable-sorts rows
  by code (a radix sort while codes fit 16 bits, as for PARTITION BY
  and join keys), and reduces each aggregate over the segments:
  ``reduceat`` for MIN/MAX, numpy's pairwise summation replayed over
  every segment at once for SUM/AVG/STDDEV/VARIANCE, one ``lexsort``
  over (segment, value) plus numpy's own index/lerp arithmetic for
  MEDIAN/PERCENTILE, segment sizes for COUNT, and distinct (segment,
  value-code) pairs for ``COUNT(DISTINCT ...)``.  Aggregate arguments
  may be value expressions (``SUM(a*b)``), items may combine aggregates
  (``SUM(v)/COUNT(*)``), HAVING is applied as a three-valued-logic mask
  over the aggregated output, and ORDER BY lexsorts the group rows.
- :func:`try_join` — hash equi-join over key-code vectors: both sides'
  equi-key expressions compile to vectors, factorize to shared integer
  codes (NULL/NaN keys get a never-matching code, exactly like the row
  path's bucket skip), and matching/expansion is pure numpy; residual
  predicates compile to masks over the gathered candidate pairs.

Every entry point returns ``None`` when any part of the statement falls
outside the compilable subset — that return value is the only
definition of columnar eligibility; there is no separate static check —
and the executor then runs its row-at-a-time interpreter, which remains
the semantics reference.  The subset is chosen so results are
*identical* to the row path (property-tested):
numeric kernels perform the same IEEE operations in the same order the
scalar evaluator would (a group's SUM adds its values in the very tree
the row path's ``np.sum`` adds them in; narrow numeric columns widen to
float64/int64, as the row path's Python numbers are), and anything
without an exact vector counterpart — object-typed cells, LIKE, map
subscripts — is evaluated element-wise through the very scalar
functions of :mod:`repro.sql.semantics` that the row path calls.

Dictionary-encoded columns (:class:`~repro.sql.table.DictColumn`: the
tsdb ``metric_name`` and ``tag``, constants of a row's series) are
operands in their own right.  A row-local expression over one — a
``tag['k']`` subscript, ``=``/``<>``/``IN``/``LIKE``/``IS NULL``
against constants, CAST — is evaluated once per dictionary entry by the
same element-wise code and gathered by code (:func:`_on_dictionary`);
the factorizers behind GROUP BY, PARTITION BY, DISTINCT, ORDER BY and
join keys code the dictionary and remap; filters, joins and outputs
move codes only.  :func:`_decode` is the single place an encoded
operand is expanded per row, for whatever was not taught the encoding,
so there is one engine and parity holds by construction.

Known deliberate fallbacks, each because no vector form is bitwise the
row path's: ``SUM/AVG/MIN/MAX(DISTINCT ...)`` (which duplicate survives
fixes the summation order) and ``COLLECT_LIST``; PERCENTILE with a
per-row or out-of-range fraction (the row path evaluates it on each
group's first row, or raises) and PERCENTILE/MEDIAN over anything but
float64 (numpy sees a differently-typed array); MIN/MAX and PERCENTILE
over floats with a -0.0 (equal zeros: builtin ``min`` keeps the first,
``partition`` an arbitrary one) and MIN/MAX over NaN (builtin ``min``
is order-dependent there); scalar/UDF calls, CASE and ``||`` string
concatenation (no vector kernels yet); non-equi joins; and window
calls with non-constant offset/window parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.sql.errors import ExecutionError, SchemaError
from repro.sql.functions import (
    SEGMENTED_AGGREGATES,
    WINDOW_FUNCTIONS,
    is_aggregate,
    segment_bounds,
    segment_positions,
    segmented_moving_avg,
    segmented_order_stat,
    segmented_rank,
    segmented_shift_targets,
)
from repro.sql.nodes import (
    Between,
    BinaryOp,
    Cast,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Node,
    Select,
    Star,
    Subscript,
    UnaryOp,
    walk,
)
from repro.sql.semantics import (
    like_to_predicate,
    sql_arith,
    sql_cast,
    sql_compare,
)
from repro.sql.scan import ScanGroups
from repro.sql.table import DictColumn, Table, _column_cells, _hashable_row


class _Ineligible(Exception):
    """Internal: the expression/statement is outside the columnar subset."""


#: Exceptions that route a statement back to the row interpreter.  The
#: row path is authoritative for errors too: it may raise the same
#: error, or legitimately avoid it (short-circuits, empty inputs).
#: TypeError/OverflowError cover numpy dtype edges (e.g. an out-of-
#: int64-range literal) whose Python-scalar behaviour differs.
_FALLBACK = (_Ineligible, SchemaError, ExecutionError, TypeError,
             OverflowError)

_NUMERIC_KINDS = frozenset("iufb")

_NP_COMPARE: dict[str, Callable] = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

# ---------------------------------------------------------------------------
# Compiled values: a column vector (with an optional NULL mask) or a constant
# ---------------------------------------------------------------------------
@dataclass
class _Val:
    """A compiled value expression over the whole relation.

    Either a constant (``const`` holds the Python value, ``data`` is
    None) or a vector: ``data`` is a numpy array of length ``ctx.n`` and
    ``null`` marks SQL-NULL positions (None meaning "no NULLs").  NaN is
    *not* NULL — it is a float value, exactly as in the row evaluator.

    A vector may be *dictionary-encoded*: ``codes`` is then an integer
    vector of length ``ctx.n``, ``data``/``null`` range over the
    dictionary, and row ``i`` holds ``data[codes[i]]``.  Row-local
    kernels run over the dictionary and keep the codes
    (:func:`_on_dictionary`), factorizers code the dictionary and gather
    (:func:`_factorize`, :func:`_sort_codes`, :func:`_pair_codes`);
    whatever was not taught the encoding asks :func:`_decode` first.
    """

    data: np.ndarray | None = None
    null: np.ndarray | None = None
    const: Any = None
    codes: np.ndarray | None = None

    @property
    def is_const(self) -> bool:
        return self.data is None


def _none_mask(cells: np.ndarray) -> np.ndarray | None:
    """NULL mask of a stored vector (only object vectors hold None)."""
    if cells.dtype != object:
        return None
    mask = np.fromiter((cell is None for cell in cells),
                       dtype=bool, count=cells.size)
    return mask if mask.any() else None


def _column_val(col: "np.ndarray | DictColumn") -> _Val:
    """A stored column vector as a value; encoded columns stay encoded and
    narrow numbers widen (exactly) to float64/int64, the row path's."""
    if isinstance(col, DictColumn):
        return _Val(data=col.values, null=_none_mask(col.values),
                    codes=col.codes)
    if col.dtype.kind in "fiu" and col.dtype.itemsize < 8:
        col = col.astype(np.float64 if col.dtype.kind == "f" else np.int64)
    return _Val(data=col, null=_none_mask(col))


class _Ctx:
    """Per-statement compile context: the relation + per-column caches."""

    def __init__(self, relation) -> None:
        self.relation = relation
        self.n = len(relation)
        self._columns: dict[int, _Val] = {}
        #: Pre-compiled window-function results, keyed by AST node id —
        #: the vector analogue of the executor's per-row window cache.
        self.windows: dict[int, _Val] = {}

    def column(self, ref: ColumnRef) -> _Val:
        idx = self.relation.resolve(ref.name, ref.table)
        if idx not in self._columns:
            self._columns[idx] = _column_val(self.relation.coldata[idx])
        return self._columns[idx]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n, dtype=bool)

    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)


def _merge_null(a: np.ndarray | None, b: np.ndarray | None
                ) -> np.ndarray | None:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _decode(val: _Val) -> _Val:
    """The flat equivalent of a possibly dictionary-encoded value.

    The only place an encoded operand is expanded to one cell per row
    (through :meth:`DictColumn.decode`, like stored columns), so code
    that was not taught the encoding sees exactly the object vector the
    adapter used to build — parity with the row path by construction.
    """
    if val.codes is None:
        return val
    return _Val(data=DictColumn(val.codes, val.data).decode(),
                null=_flat_null(val))


def _flat_null(val: _Val) -> np.ndarray | None:
    """The per-row NULL mask of a (possibly encoded) vector value."""
    if val.null is None or val.codes is None:
        return val.null
    return val.null[val.codes]


def _dictionary(val: _Val) -> _Val:
    """An encoded value's dictionary as a flat value of its own."""
    return _Val(data=val.data, null=val.null)


def _on_dictionary(ctx, *vals: _Val):
    """Where a row-local kernel over ``vals`` should run.

    Returns ``(ctx, vals, codes)``.  When every vector operand is
    encoded by one and the same code vector (constants ride along), a
    row-local result is a function of the code alone: the kernel runs
    over the dictionary — a size-only context of its length, operands
    stripped to their dictionaries — and ``codes`` says how to gather
    the result back to rows (value kernels just keep it on the
    ``_Val``).  Otherwise every operand is decoded and ``codes`` is
    None.  Dictionary entries no row refers to are evaluated too; an
    error there only sends the statement to the row interpreter.
    """
    codes = None
    for val in vals:
        if val.is_const:
            continue
        if val.codes is None or (codes is not None
                                 and val.codes is not codes):
            return ctx, [_decode(v) for v in vals], None
        codes = val.codes
    if codes is None:
        return ctx, list(vals), None
    size = next(v.data.size for v in vals if not v.is_const)
    return (_SynthCtx(size),
            [v if v.is_const else _dictionary(v) for v in vals], codes)


def _by_code(masks: tuple[np.ndarray, np.ndarray], codes
             ) -> tuple[np.ndarray, np.ndarray]:
    """A (true, null) pair computed over a dictionary, gathered to rows."""
    if codes is None:
        return masks
    return masks[0][codes], masks[1][codes]


def _cells(val: _Val, ctx: _Ctx) -> list:
    """The value as Python cells — identical to what ``.rows`` would hold."""
    return _val_cells(val, ctx.n)


def _val_cells(val: _Val, n: int) -> list:
    """Cells with the NULL mask applied — the row evaluator's values."""
    if val.is_const:
        return [val.const] * n
    cells = _column_cells(val.data)
    if val.null is not None:
        cells = [None if isnull else cell
                 for cell, isnull in zip(cells, val.null.tolist())]
    return cells


def _all_strings(cells) -> bool:
    """True when every cell is exactly ``str`` — the vectorizable case.

    Plain strings hash, compare, and sort identically under numpy and
    Python, so string-only object columns can take ``np.unique`` fast
    paths that would be unsound for mixed cells (NaN identity, cross-
    type ``==``).
    """
    return all(type(cell) is str for cell in cells)


def _gather_val(val: _Val, idx: np.ndarray) -> _Val:
    """The value restricted to (or permuted by) an index vector."""
    if val.is_const:
        return val
    if val.codes is not None:
        return _Val(data=val.data, null=val.null, codes=val.codes[idx])
    return _Val(data=val.data[idx],
                null=val.null[idx] if val.null is not None else None)


def _compile_any(expr: Node, ctx: "_Ctx") -> _Val:
    """Compile as a value; boolean-shaped trees become True/False/None.

    The row evaluator has one ``_eval`` for both value and predicate
    expressions; this is its compiled counterpart.  AND/OR compile
    without short-circuiting — Kleene logic gives identical *values*,
    and any error the row path would dodge behind a short circuit makes
    the statement fall back to the row path, which then dodges it.
    """
    try:
        return _compile_value(expr, ctx)
    except _Ineligible:
        pass
    true, null = _compile_bool(expr, ctx)
    if not null.any():
        return _Val(data=true)
    return _Val(data=true, null=null)


def _bool_from_val(val: _Val, ctx: "_Ctx"
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A compiled value reinterpreted as a 3VL (true, null) mask pair.

    Only genuinely boolean values qualify: True/False/None cells.  The
    row path applies ``is True`` / Kleene connectives to these directly,
    so the masks are exact.  Anything else (ints used as truth values)
    is ineligible.
    """
    if val.is_const:
        if val.const is True:
            return ctx.ones(), ctx.zeros()
        if val.const is False:
            return ctx.zeros(), ctx.zeros()
        if val.const is None:
            return ctx.zeros(), ctx.ones()
        raise _Ineligible
    val = _decode(val)
    kind = val.data.dtype.kind
    if kind == "b":
        null = val.null
        if null is None:
            return val.data.astype(bool, copy=False), ctx.zeros()
        return val.data & ~null, null.copy()
    if kind != "O":
        raise _Ineligible
    true = ctx.zeros()
    null = ctx.zeros()
    for i, cell in enumerate(_val_cells(val, ctx.n)):
        if cell is True:
            true[i] = True
        elif cell is None:
            null[i] = True
        elif cell is not False:
            raise _Ineligible
    return true, null


# ---------------------------------------------------------------------------
# Value compiler
# ---------------------------------------------------------------------------
def _compile_value(expr: Node, ctx: _Ctx) -> _Val:
    if isinstance(expr, Literal):
        return _Val(const=expr.value)
    if isinstance(expr, ColumnRef):
        return ctx.column(expr)
    if isinstance(expr, FuncCall) and expr.window is not None:
        cached = ctx.windows.get(id(expr))
        if cached is None:
            raise _Ineligible    # window in an unsupported position
        return cached
    if isinstance(expr, UnaryOp) and expr.op == "-":
        val = _decode(_compile_value(expr.operand, ctx))
        if val.is_const:
            if val.const is None:
                return _Val(const=None)
            try:
                return _Val(const=-val.const)
            except TypeError:
                raise _Ineligible from None
        # Bools negate to ints in Python but not in numpy; unsigned
        # and INT64_MIN negations wrap.  All go to the row path.
        if val.data.dtype.kind not in "if":
            raise _Ineligible
        if val.data.dtype.kind == "i" and \
                _abs_bound(val.data) >= 2 ** 63:
            raise _Ineligible
        return _Val(data=-val.data, null=val.null)
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*", "/", "%"):
        return _compile_arith(expr, ctx)
    if isinstance(expr, Subscript):
        return _compile_subscript(expr, ctx)
    if isinstance(expr, Cast):
        val = _compile_value(expr.expr, ctx)
        if val.is_const:
            return _Val(const=sql_cast(val.const, expr.type_name))
        ctx, (val,), codes = _on_dictionary(ctx, val)
        out = np.empty(ctx.n, dtype=object)
        null = ctx.zeros()
        for i, cell in enumerate(_cells(val, ctx)):
            cast = sql_cast(cell, expr.type_name)
            out[i] = cast
            if cast is None:
                null[i] = True
        return _Val(data=out, null=null if null.any() else None,
                    codes=codes)
    raise _Ineligible


def _numeric_operand(val: _Val, allow_bool: bool = True
                     ) -> tuple[Any, np.ndarray | None] | None:
    """The value as a numpy-arithmetic operand, or None if non-numeric.

    ``allow_bool=False`` rejects boolean operands: comparisons treat
    True as 1 exactly like Python, but numpy *arithmetic* on bool
    arrays is logical (True+True is True, not 2), so arithmetic sends
    bools to the row path.  Unsigned columns are rejected outright —
    numpy wraps them on negation/subtraction and promotes uint64/int64
    mixes to float64, neither of which Python int semantics do.
    """
    kinds = frozenset("ifb") if allow_bool else frozenset("if")
    if val.is_const:
        if isinstance(val.const, bool):
            return (val.const, None) if allow_bool else None
        if isinstance(val.const, (int, float, np.number)):
            return val.const, None
        return None
    if val.data.dtype.kind in kinds:
        return val.data, val.null
    return None


def _abs_bound(operand: Any) -> int:
    """Largest absolute value an operand can contribute (exact ints)."""
    if isinstance(operand, np.ndarray):
        if operand.size == 0:
            return 0
        return max(abs(int(operand.max())), abs(int(operand.min())))
    return abs(int(operand))


def _is_int_operand(operand: Any) -> bool:
    if isinstance(operand, np.ndarray):
        return operand.dtype.kind == "i"
    return isinstance(operand, int) and not isinstance(operand, bool)


def _int_arith_in_range(op: str, l_data: Any, r_data: Any) -> bool:
    """True when integer arithmetic provably cannot leave int64.

    numpy int64 wraps silently where Python promotes to arbitrary
    precision; anything that could overflow (including the
    ``INT64_MIN % -1`` quotient edge) must take the row path.
    """
    limit = 2 ** 63 - 1
    lo, hi = _abs_bound(l_data), _abs_bound(r_data)
    if op in ("+", "-"):
        return lo + hi <= limit
    if op == "*":
        return lo * hi <= limit
    return lo <= limit and hi <= limit     # "%": result bounded by divisor


def _compile_arith(expr: BinaryOp, ctx: _Ctx) -> _Val:
    left = _decode(_compile_value(expr.left, ctx))
    right = _decode(_compile_value(expr.right, ctx))
    if left.is_const and right.is_const:
        return _Val(const=sql_arith(expr.op, left.const, right.const))
    if (left.is_const and left.const is None) or (
            right.is_const and right.const is None):
        return _Val(const=None)
    l_num = _numeric_operand(left, allow_bool=False)
    r_num = _numeric_operand(right, allow_bool=False)
    if l_num is None or r_num is None:
        raise _Ineligible      # strings, maps, bools, mixed types: row path
    (l_data, l_null), (r_data, r_null) = l_num, r_num
    l_int = _is_int_operand(l_data)
    r_int = _is_int_operand(r_data)
    if l_int and r_int:
        if expr.op == "/":
            # np.true_divide rounds each int to float64 *before*
            # dividing; Python's int/int is correctly rounded.  Exact
            # only while both operands are float64-representable.
            if max(_abs_bound(l_data), _abs_bound(r_data)) > 2 ** 53:
                raise _Ineligible
        elif not _int_arith_in_range(expr.op, l_data, r_data):
            raise _Ineligible
    elif l_int or r_int:
        # int-vs-float arithmetic promotes the int side to float64;
        # match Python's exact conversion only below 2^53.
        int_side = l_data if l_int else r_data
        if _abs_bound(int_side) > 2 ** 53:
            raise _Ineligible
    null = _merge_null(l_null, r_null)
    if expr.op in ("/", "%"):
        # The scalar semantics yield NULL on a zero divisor.
        if right.is_const and r_data == 0:
            return _Val(const=None)
        if not right.is_const:
            zero = r_data == 0
            if zero.any():
                null = _merge_null(null, zero)
    op = {"+": np.add, "-": np.subtract, "*": np.multiply,
          "/": np.true_divide, "%": np.remainder}[expr.op]
    with np.errstate(all="ignore"):
        data = op(l_data, r_data)
    if not isinstance(data, np.ndarray):         # const (+) const fold
        data = np.full(ctx.n, data)
    return _Val(data=data, null=null)


def _compile_subscript(expr: Subscript, ctx: _Ctx) -> _Val:
    """``tag['host']``-style map/list access, element-wise.

    Over an encoded base (the tsdb ``tag`` column) the elements are the
    dictionary's: one lookup per series, and the result stays encoded.
    """
    base = _compile_value(expr.base, ctx)
    index = _compile_value(expr.index, ctx)
    if not index.is_const:
        raise _Ineligible
    key = index.const
    ctx, (base,), codes = _on_dictionary(ctx, base)
    out = np.empty(ctx.n, dtype=object)
    null = ctx.zeros()
    for i, cell in enumerate(_cells(base, ctx)):
        if cell is None:
            value = None
        elif isinstance(cell, dict):
            value = cell.get(key)
        elif isinstance(cell, (list, tuple)):
            j = int(key)
            value = cell[j] if -len(cell) <= j < len(cell) else None
        else:
            raise _Ineligible        # row path raises ExecutionError
        out[i] = value
        if value is None:
            null[i] = True
    return _Val(data=out, null=null if null.any() else None, codes=codes)


# ---------------------------------------------------------------------------
# Boolean (mask) compiler: three-valued logic as (true, null) mask pairs
# ---------------------------------------------------------------------------
def _compile_bool(expr: Node, ctx: _Ctx) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(expr, Literal):
        if expr.value is True:
            return ctx.ones(), ctx.zeros()
        if expr.value is False:
            return ctx.zeros(), ctx.zeros()
        if expr.value is None:
            return ctx.zeros(), ctx.ones()
        raise _Ineligible            # non-boolean literal truthiness
    if isinstance(expr, ColumnRef):
        return _bool_from_val(ctx.column(expr), ctx)
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            lt, ln = _compile_bool(expr.left, ctx)
            rt, rn = _compile_bool(expr.right, ctx)
            false = (~lt & ~ln) | (~rt & ~rn)
            true = lt & rt
            return true, ~(false | true)
        if expr.op == "OR":
            lt, ln = _compile_bool(expr.left, ctx)
            rt, rn = _compile_bool(expr.right, ctx)
            true = lt | rt
            false = (~lt & ~ln) & (~rt & ~rn)
            return true, ~(false | true)
        if expr.op in _NP_COMPARE:
            return _compile_compare(
                expr.op, _compile_value(expr.left, ctx),
                _compile_value(expr.right, ctx), ctx)
        raise _Ineligible
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        t, n = _compile_bool(expr.operand, ctx)
        return ~t & ~n, n
    if isinstance(expr, Between):
        value = _compile_value(expr.expr, ctx)
        low_t, low_n = _compile_compare(
            ">=", value, _compile_value(expr.low, ctx), ctx)
        high_t, high_n = _compile_compare(
            "<=", value, _compile_value(expr.high, ctx), ctx)
        false = (~low_t & ~low_n) | (~high_t & ~high_n)
        true = low_t & high_t
        null = ~(false | true)
        if expr.negated:
            return false, null
        return true, null
    if isinstance(expr, InList):
        return _compile_in_list(expr, ctx)
    if isinstance(expr, Like):
        return _compile_like(expr, ctx)
    if isinstance(expr, IsNull):
        val = _compile_value(expr.expr, ctx)
        if val.is_const:
            is_null = ctx.ones() if val.const is None else ctx.zeros()
        elif val.null is None:
            is_null = ctx.zeros()
        else:
            is_null = _flat_null(val).copy()
        return (~is_null if expr.negated else is_null), ctx.zeros()
    raise _Ineligible


def _compile_compare(op: str, left: _Val, right: _Val, ctx: _Ctx
                     ) -> tuple[np.ndarray, np.ndarray]:
    if left.is_const and right.is_const:
        result = sql_compare(op, left.const, right.const)
        if result is None:
            return ctx.zeros(), ctx.ones()
        return (ctx.ones() if result else ctx.zeros()), ctx.zeros()
    if (left.is_const and left.const is None) or (
            right.is_const and right.const is None):
        return ctx.zeros(), ctx.ones()
    ctx, (left, right), codes = _on_dictionary(ctx, left, right)
    if codes is not None:
        return _by_code(_compile_compare(op, left, right, ctx), codes)

    l_num = _numeric_operand(left)
    r_num = _numeric_operand(right)
    if l_num is not None and r_num is not None:
        (l_data, l_null), (r_data, r_null) = l_num, r_num
        l_int, r_int = _is_int_operand(l_data), _is_int_operand(r_data)
        if l_int != r_int:
            # Mixed int/float comparison: numpy promotes the int side
            # to float64; Python compares exactly.  Only safe while
            # the int side is float64-representable.
            int_side = l_data if l_int else r_data
            if _abs_bound(int_side) > 2 ** 53:
                raise _Ineligible
        null = _merge_null(l_null, r_null)
        with np.errstate(invalid="ignore"):
            cmp = _NP_COMPARE[op](l_data, r_data)
        if null is None:
            return cmp, ctx.zeros()
        return cmp & ~null, null

    l_str = _string_operand(left)
    r_str = _string_operand(right)
    if l_str is not None and r_str is not None:
        cmp = _NP_COMPARE[op](l_str, r_str)
        if not isinstance(cmp, np.ndarray):
            cmp = np.full(ctx.n, bool(cmp))
        return cmp, ctx.zeros()

    if op in ("=", "<>"):
        # Equality never raises, so numpy's elementwise object compare
        # (a C loop over __eq__) is safe and matches the scalar path.
        null = _merge_null(
            None if left.is_const else left.null,
            None if right.is_const else right.null)
        l_op = left.const if left.is_const else left.data
        r_op = right.const if right.is_const else right.data
        for operand in (l_op, r_op):
            if isinstance(operand, np.ndarray) \
                    and operand.dtype.kind == "u":
                raise _Ineligible    # uint mixes promote to float64
        try:
            raw = (l_op == r_op) if op == "=" else (l_op != r_op)
            raw = np.asarray(raw, dtype=bool)
        except Exception:
            raise _Ineligible from None
        if raw.ndim == 0:            # incomparable types collapse to a scalar
            raw = np.full(ctx.n, bool(raw))
        if null is None:
            return raw, ctx.zeros()
        return raw & ~null, null

    # Mixed/object ordering: element-wise through the scalar semantics.
    true = ctx.zeros()
    null = ctx.zeros()
    for i, (a, b) in enumerate(zip(_cells(left, ctx), _cells(right, ctx))):
        result = sql_compare(op, a, b)
        if result is None:
            null[i] = True
        elif result:
            true[i] = True
    return true, null


def _string_operand(val: _Val) -> Any | None:
    """The value as a numpy-string comparison operand, or None."""
    if val.is_const:
        return val.const if isinstance(val.const, str) else None
    if val.data.dtype.kind == "U":
        return val.data
    return None


def _compile_in_list(expr: InList, ctx: _Ctx
                     ) -> tuple[np.ndarray, np.ndarray]:
    value = _compile_value(expr.expr, ctx)
    if not all(isinstance(item, Literal) for item in expr.items):
        raise _Ineligible
    literals = [item.value for item in expr.items]
    saw_null = any(v is None for v in literals)
    if value.is_const and value.const is None:
        return ctx.zeros(), ctx.ones()
    ctx, (value,), codes = _on_dictionary(ctx, value)
    found = ctx.zeros()
    value_null = ctx.zeros()
    for lit in literals:
        if lit is None:
            continue
        t, n = _compile_compare("=", value, _Val(const=lit), ctx)
        found |= t
        value_null |= n
    if not literals or all(v is None for v in literals):
        # No comparisons ran; NULL-ness of the value still matters.
        if not value.is_const and value.null is not None:
            value_null |= value.null
    not_found = ~found & ~value_null
    null = value_null | (not_found & saw_null)
    if expr.negated:
        found = not_found & ~null
    return _by_code((found, null), codes)


def _compile_like(expr: Like, ctx: _Ctx) -> tuple[np.ndarray, np.ndarray]:
    value = _compile_value(expr.expr, ctx)
    pattern = _compile_value(expr.pattern, ctx)
    if not pattern.is_const:
        raise _Ineligible
    if pattern.const is None or (value.is_const and value.const is None):
        return ctx.zeros(), ctx.ones()
    predicate = like_to_predicate(str(pattern.const))
    ctx, (value,), codes = _on_dictionary(ctx, value)
    true = ctx.zeros()
    null = ctx.zeros()
    for i, cell in enumerate(_cells(value, ctx)):
        if cell is None:
            null[i] = True
        elif predicate(str(cell)):
            true[i] = True
    if expr.negated:
        true = ~true & ~null
    return _by_code((true, null), codes)


# ---------------------------------------------------------------------------
# Sort codes: ORDER BY as np.lexsort over dense rank vectors
# ---------------------------------------------------------------------------
def _sort_codes(val: _Val, n: int) -> np.ndarray:
    """Dense int64 codes whose ascending order equals ``_SortKey`` order.

    Two positions get the same code exactly when the row path's
    ``_SortKey`` ranks their cells equal, and a smaller code exactly
    when it ranks the cell smaller: NULL < numbers (compared through
    ``float(value)``, so int64 cells collapse precisely where the row
    path collapses them) < NaN < strings < everything else (by
    ``str``).  DESC keys negate the codes; all NaNs share one bucket,
    keeping the order transitive.  An encoded value ranks its
    dictionary and gathers (codes then skip the ranks of entries no row
    holds, which changes neither order nor ties).
    """
    if val.is_const:
        return np.zeros(n, dtype=np.int64)
    if val.codes is not None:
        return _sort_codes(_dictionary(val), val.data.size)[val.codes]
    data, null = val.data, val.null
    kind = data.dtype.kind
    if kind in "iubf":
        as_float = data.astype(np.float64)
        valid = np.ones(n, dtype=bool) if null is None else ~null
        nan = np.zeros(n, dtype=bool)
        if kind == "f":
            nan = np.isnan(data) & valid
        ok = valid & ~nan
        uniq = np.unique(as_float[ok])
        codes = np.zeros(n, dtype=np.int64)
        codes[ok] = np.searchsorted(uniq, as_float[ok]) + 1
        codes[nan] = uniq.size + 1
        return codes
    if kind == "U" and null is None:
        _, inverse = np.unique(data, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64)
    if kind == "O" and (null is None or not null.any()) \
            and _all_strings(_column_cells(data)):
        _, inverse = np.unique(data, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64)
    return _object_sort_codes(_val_cells(val, n))


_RANK_NULL, _RANK_NUM, _RANK_NAN, _RANK_STR, _RANK_OTHER = range(5)


def _object_sort_codes(cells: list) -> np.ndarray:
    """Sort codes for arbitrary Python cells, per ``_SortKey._rank``."""
    n = len(cells)
    rank = np.empty(n, dtype=np.int8)
    num_vals = np.zeros(n, dtype=np.float64)
    str_vals = [""] * n
    for i, cell in enumerate(cells):
        if cell is None:
            rank[i] = _RANK_NULL
        elif isinstance(cell, bool):
            rank[i] = _RANK_NUM
            num_vals[i] = float(cell)
        elif isinstance(cell, (int, float)):
            as_float = float(cell)   # row path's conversion; may overflow
            if as_float != as_float:
                rank[i] = _RANK_NAN
            else:
                rank[i] = _RANK_NUM
                num_vals[i] = as_float
        elif isinstance(cell, str):
            rank[i] = _RANK_STR
            str_vals[i] = cell
        else:
            rank[i] = _RANK_OTHER
            str_vals[i] = str(cell)
    codes = np.zeros(n, dtype=np.int64)
    base = int((rank == _RANK_NULL).any())
    num_mask = rank == _RANK_NUM
    if num_mask.any():
        uniq = np.unique(num_vals[num_mask])
        codes[num_mask] = base + np.searchsorted(uniq, num_vals[num_mask])
        base += uniq.size
    nan_mask = rank == _RANK_NAN
    if nan_mask.any():
        codes[nan_mask] = base
        base += 1
    for text_rank in (_RANK_STR, _RANK_OTHER):
        mask = rank == text_rank
        if mask.any():
            sub = np.array([str_vals[i] for i in np.flatnonzero(mask)])
            uniq, inverse = np.unique(sub, return_inverse=True)
            codes[mask] = base + inverse.reshape(-1)
            base += uniq.size
    return codes


def _has_window(expr: Node) -> bool:
    return any(isinstance(node, FuncCall) and node.window is not None
               for node in walk(expr))


def _order_permutation(order_by, values: list[_Val] | None,
                       columns: list[str] | None, ctx) -> np.ndarray:
    """The lexsort permutation for an ORDER BY clause.

    Mirrors the row path's ``eval_order_expr`` resolution: positional
    integer literals and unqualified output-alias references sort by the
    output column; anything else compiles over the input relation.
    ``np.lexsort`` treats its *last* key as primary, hence the reversal;
    its stable mergesort matches ``sorted``'s tie behaviour.
    """
    keys: list[np.ndarray] = []
    for item in order_by:
        expr = item.expr
        val: _Val | None = None
        if isinstance(expr, Literal):
            if isinstance(expr.value, int) and columns is not None \
                    and 0 <= expr.value - 1 < len(columns):
                val = values[expr.value - 1]
            else:
                val = _Val(const=expr.value)
        elif isinstance(expr, ColumnRef) and expr.table is None \
                and columns is not None:
            lowered = expr.name.lower()
            for idx, col in enumerate(columns):
                if col.lower() == lowered:
                    val = values[idx]
                    break
        if val is None:
            if _has_window(expr):
                raise _Ineligible    # row path raises: no window cache here
            val = _compile_any(expr, ctx)
        codes = _sort_codes(val, ctx.n)
        keys.append(codes if item.ascending else -codes)
    return np.lexsort(tuple(reversed(keys)))


# ---------------------------------------------------------------------------
# Window functions: partition-segment scans
# ---------------------------------------------------------------------------
def _compile_windows(items, ctx: _Ctx) -> None:
    """Compile every windowed call in the items into ``ctx.windows``."""
    for item in items:
        for node in walk(item.expr):
            if isinstance(node, FuncCall) and node.window is not None \
                    and id(node) not in ctx.windows:
                ctx.windows[id(node)] = _window_val(node, ctx)


def _window_val(call: FuncCall, ctx: _Ctx) -> _Val:
    """One window function as a per-row _Val over the whole relation.

    Rows are lexsorted by (partition code, ORDER BY sort codes) — a
    stable global sort whose restriction to each partition equals the
    row path's per-partition sort — and each kernel then scans the
    contiguous partition segments.
    """
    if call.name not in WINDOW_FUNCTIONS:
        raise _Ineligible            # row path raises ExecutionError
    spec = call.window
    n = ctx.n
    sub_exprs = (list(spec.partition_by)
                 + [o.expr for o in spec.order_by] + list(call.args))
    if any(_has_window(sub) for sub in sub_exprs):
        raise _Ineligible            # nested window: row path raises
    pcodes = _key_codes(
        [_compile_any(e, ctx) for e in spec.partition_by], n)
    keys = [pcodes]
    for o in spec.order_by:
        codes = _sort_codes(_compile_any(o.expr, ctx), n)
        keys.append(codes if o.ascending else -codes)
    pkeys = _radix_keys(pcodes)
    if len(keys) > 1:
        order = np.lexsort(tuple(reversed(keys)))
    else:
        order = np.argsort(pkeys, kind="stable")
    starts, ends = segment_bounds(pkeys[order])
    args = [_decode(_compile_any(a, ctx)) for a in call.args]
    ordered = _window_kernel(call, args, ctx, order, starts, ends)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n, dtype=np.intp)
    return _gather_val(ordered, inverse)


def _factorize(val: _Val, n: int) -> tuple[np.ndarray, int]:
    """``(codes, size)``: one key's codes in ``[0, size)``, equal exactly
    when the row path's hashed keys are.

    Key identity on the row path is Python ``==`` over
    ``_hashable_row``-converted cells (dict insertion, partition and
    DISTINCT sets alike), so the general path hashes cells through the
    very same conversion.  NaN keys fall out naturally: two NaN cells
    compare unequal unless they are one object, here as there.  A
    NULL-free numeric or all-string vector skips the Python loop with
    one ``np.unique`` (plain strings and NaN-free numbers hash, compare
    and sort identically under numpy and Python).  An encoded value
    factorizes its dictionary — at most one entry per series — and
    gathers by code.
    """
    if val.is_const:
        return np.zeros(n, dtype=np.int64), 1
    if val.codes is not None:
        codes, size = _factorize(_dictionary(val), val.data.size)
        return codes[val.codes], size
    if val.null is None:
        kind = val.data.dtype.kind
        if kind in "iubU" or (
                kind == "f" and not np.isnan(val.data).any()) or (
                kind == "O" and _all_strings(_column_cells(val.data))):
            uniq, inverse = np.unique(val.data, return_inverse=True)
            return inverse.reshape(-1).astype(np.int64), int(uniq.size)
    seen: dict = {}
    codes = np.empty(n, dtype=np.int64)
    for i, cell in enumerate(_val_cells(val, n)):
        # Scalars hash/compare the same bare or tuple-wrapped.
        key = (cell if not isinstance(cell, (dict, list, tuple))
               else _hashable_row((cell,)))
        code = seen.get(key)
        if code is None:
            code = len(seen)
            seen[key] = code
        codes[i] = code
    return codes, len(seen)


def _key_codes(vals: list[_Val], n: int) -> np.ndarray:
    """One int64 code per row, equal exactly when the key tuples are.

    GROUP BY and PARTITION BY keys alike: each key factorizes on its
    own and the per-key codes combine by mixed radix — tuple equality
    is element-wise equality.  Codes are not dense.
    """
    total: np.ndarray | None = None
    radix = 1
    for val in vals:
        codes, size = _factorize(val, n)
        radix *= max(size, 1)
        if radix > 2 ** 62:
            raise _Ineligible        # combined code could overflow int64
        total = codes if total is None else total * size + codes
    return np.zeros(n, dtype=np.int64) if total is None else total


def _radix_keys(codes: np.ndarray) -> np.ndarray:
    """Non-negative codes below 2**16 as uint8/uint16, whose stable sort
    numpy runs as a radix sort; the cast keeps the keys' order, so the
    permutation is the one the int64 sort would give."""
    if codes.size and codes.min() >= 0:
        top = codes.max()
        if top < 2 ** 16:
            return codes.astype(np.uint8 if top < 2 ** 8 else np.uint16)
    return codes


def _window_kernel(call: FuncCall, args: list[_Val], ctx: _Ctx,
                   order: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> _Val:
    """Dispatch one window function over ordered partition segments."""
    name = call.name
    n = ctx.n
    seg_start, seg_len, pos = segment_positions(starts, ends, n)
    if name == "ROW_NUMBER" or (name == "RANK" and not args):
        return _Val(data=(pos + 1).astype(np.int64))
    if name == "RANK":
        return _rank_kernel(args[0], order, n, starts, ends)
    if name in ("LAG", "LEAD"):
        if not args:
            raise _Ineligible        # row path raises IndexError
        return _shift_kernel(name, args, n, order, seg_start, seg_len, pos)
    if name == "MOVING_AVG":
        if not args:
            raise _Ineligible
        return _moving_avg_kernel(args, n, order, starts, ends)
    raise _Ineligible


def _rank_kernel(val: _Val, order: np.ndarray, n: int,
                 starts: np.ndarray, ends: np.ndarray) -> _Val:
    ordered = _gather_val(val, order)
    if ordered.is_const:
        c = ordered.const
        if c is None or isinstance(c, (bool, int, float, str)):
            # Every value equal (or None): nothing ranks strictly less.
            return _Val(data=np.ones(n, dtype=np.int64))
        raise _Ineligible            # c < c may raise; row path decides
    data = ordered.data
    kind = data.dtype.kind
    if kind in "iub" or kind == "U":
        uncounted = np.zeros(n, dtype=bool)
    elif kind == "f":
        uncounted = np.isnan(data)
    else:
        raise _Ineligible            # object cells: Python < may raise
    if ordered.null is not None:
        uncounted = uncounted | ordered.null
    return _Val(data=segmented_rank(data, uncounted, starts, ends))


def _const_window_param(args: list[_Val], index: int) -> Any:
    """A LAG/LEAD/MOVING_AVG parameter, required constant."""
    if len(args) <= index:
        return None
    if not args[index].is_const:
        raise _Ineligible            # per-row parameters: row path only
    return args[index].const


def _shift_kernel(name: str, args: list[_Val], n: int, order: np.ndarray,
                  seg_start: np.ndarray, seg_len: np.ndarray,
                  pos: np.ndarray) -> _Val:
    offset_const = _const_window_param(args, 1)
    default = _const_window_param(args, 2)
    try:
        offset = int(offset_const) if offset_const is not None else 1
    except (TypeError, ValueError):
        raise _Ineligible from None  # row path raises the same error
    src = _gather_val(args[0], order)
    if src.is_const:
        data = np.empty(n, dtype=object)
        data.fill(src.const)
        src = _Val(data=data,
                   null=None if src.const is not None
                   else np.ones(n, dtype=bool))
    target, in_bounds = segmented_shift_targets(
        seg_start, seg_len, pos, offset, lead=(name == "LEAD"))
    gathered = src.data[target]
    gathered_null = src.null[target] if src.null is not None else None
    if default is None:
        null = ~in_bounds
        if gathered_null is not None:
            null = null | gathered_null
        return _Val(data=gathered, null=null)
    kind = gathered.dtype.kind
    if kind == "f" and type(default) is float:
        data = np.where(in_bounds, gathered, default)
    elif kind == "i" and type(default) is int and abs(default) < 2 ** 63:
        data = np.where(in_bounds, gathered, default)
    else:
        out = np.empty(n, dtype=object)
        for i, cell in enumerate(_column_cells(gathered)):
            out[i] = cell
        out[~in_bounds] = default
        data = out
    null = gathered_null & in_bounds if gathered_null is not None else None
    return _Val(data=data, null=null)


def _moving_avg_kernel(args: list[_Val], n: int, order: np.ndarray,
                       starts: np.ndarray, ends: np.ndarray) -> _Val:
    window_const = _const_window_param(args, 1)
    try:
        window = int(window_const) if window_const is not None else 5
    except (TypeError, ValueError):
        raise _Ineligible from None
    src = args[0]
    if src.is_const:
        if src.const is None:
            return _Val(const=None)
        if not isinstance(src.const, (bool, int, float)):
            raise _Ineligible        # np.mean would raise; row path decides
        src = _Val(data=np.full(n, src.const))
    if src.null is not None and src.null.any():
        raise _Ineligible            # per-window NULL filtering: row path
    if src.data.dtype.kind not in _NUMERIC_KINDS:
        raise _Ineligible
    if window < 1:
        return _Val(const=None)      # every trailing window is empty
    ordered = src.data[order]
    return _Val(data=segmented_moving_avg(ordered, starts, ends, window))


# ---------------------------------------------------------------------------
# Executor entry points
# ---------------------------------------------------------------------------
def try_filter(relation, where: Node):
    """Vectorize a WHERE clause; returns a filtered relation or None.

    Rows are kept where the compiled predicate is *true* (NULL and false
    both drop the row, per SQL); a grouped scan's rows stay clustered.
    On any ineligible construct — or a schema/type error, which the row
    path must surface (or legitimately avoid via short-circuiting) —
    returns None.
    """
    from repro.sql.executor import _Relation

    try:
        ctx = _Ctx(relation)
        true, _ = _compile_bool(where, ctx)
    except _FALLBACK:
        return None
    return _Relation(relation.columns,
                     coldata=[col[true] for col in relation.coldata],
                     groups=None if relation.groups is None
                     else relation.groups.select(true))


def try_project(stmt: Select, relation):
    """Columnar plain SELECT; returns the result Table or None.

    Bare column references are zero-copy vector selects; value
    expressions (arithmetic, CAST, subscripts, comparisons) compile to
    vectors; window functions run as partition-segment scans; ORDER BY
    is one lexsort over the items' sort codes.  Scalar function calls
    and CASE fall back.
    """
    from repro.sql.executor import Executor

    try:
        ctx = _Ctx(relation)
        items = Executor._expand_stars(stmt.items, relation)
        _compile_windows(items, ctx)
        values = [_compile_any(item.expr, ctx) for item in items]
        columns = Executor._dedupe_columns(
            [Executor._output_name(item, idx)
             for idx, item in enumerate(items)])
        vectors = [_val_to_vector(val, ctx.n) for val in values]
        if stmt.order_by:
            perm = _order_permutation(stmt.order_by, values, columns, ctx)
            vectors = [vec[perm] for vec in vectors]
    except _FALLBACK:
        return None
    return Table.from_columns(columns, vectors)


def _val_to_vector(val: _Val, n: int) -> "np.ndarray | DictColumn":
    """One compiled value as an output column vector.

    NULL-free vectors pass through as-is (views, not copies); vectors
    with NULLs are rebuilt as object arrays holding None exactly where
    the row evaluator would have produced it.  An encoded value leaves
    as a :class:`DictColumn` over its dictionary's output vector.
    """
    if val.codes is not None:
        return DictColumn(val.codes,
                          _val_to_vector(_dictionary(val), val.data.size))
    if val.is_const:
        out = np.empty(n, dtype=object)
        out.fill(val.const)
        return out
    if val.null is None or not val.null.any():
        return val.data
    out = np.empty(n, dtype=object)
    for i, cell in enumerate(_column_cells(val.data)):
        out[i] = None if val.null[i] else cell
    return out


def try_aggregate(stmt: Select, relation):
    """Columnar GROUP BY: ``(Table, groups before HAVING)`` or None.

    Groups appear in first-occurrence order — the row path's dict
    insertion order — and each supported aggregate reduces over the
    group's rows in their original order, so outputs match the row
    interpreter exactly.  Items may be expressions over aggregates
    (``SUM(v)/COUNT(*)``) and aggregate arguments may be expressions
    (``SUM(a*b)``): both compile through the same value/bool compilers,
    re-rooted on a synthetic per-group relation.  HAVING keeps groups
    where its compiled mask is true; ORDER BY lexsorts the group rows.
    GROUP BY keys are any row-local expressions (Listing 1's
    ``tag['tenant']``), compiled like any other value — unless the rows
    come from a grouped scan (``relation.groups``), already clustered
    by exactly these keys.
    """
    from repro.sql.executor import Executor

    try:
        ctx = _Ctx(relation)
        for item in stmt.items:
            if isinstance(item.expr, Star):
                raise _Ineligible    # row path raises; let it
        if not stmt.group_by and ctx.n == 0:
            raise _Ineligible        # synthesized empty-group row: row path
        if any(_has_window(expr) for expr in stmt.group_by):
            raise _Ineligible        # row path raises (no window cache)
        columns = Executor._dedupe_columns(
            [Executor._output_name(item, idx)
             for idx, item in enumerate(stmt.items)])
        if relation.groups is not None:
            groups = _Groups(ctx, layout=relation.groups)
        else:
            groups = _Groups(ctx, _key_codes(
                [_compile_any(expr, ctx) for expr in stmt.group_by], ctx.n))
        n_groups = groups.n_groups
        item_vals = [groups.compile(item.expr) for item in stmt.items]
        keep: np.ndarray | None = None
        if stmt.having is not None:
            rewritten = groups.rewrite(stmt.having, columns, item_vals)
            keep, _ = _compile_bool(rewritten, groups.vals_ctx)
        perm: np.ndarray | None = None
        if stmt.order_by:
            keys: list[np.ndarray] = []
            for o in stmt.order_by:
                rewritten = groups.rewrite(o.expr, columns, item_vals)
                val = _compile_any(rewritten, groups.vals_ctx)
                sort = _sort_codes(val, n_groups)
                keys.append(sort if o.ascending else -sort)
            if keep is not None:
                keys = [k[keep] for k in keys]
            perm = np.lexsort(tuple(reversed(keys)))
        vectors = []
        for val in item_vals:
            vec = _val_to_vector(val, n_groups)
            if keep is not None:
                vec = vec[keep]
            if perm is not None:
                vec = vec[perm]
            vectors.append(vec)
    except _FALLBACK:
        return None
    return Table.from_columns(columns, vectors), n_groups


class _SynthCtx:
    """Compile context over synthesized (already-compiled) columns.

    :class:`_Groups` stores each per-group value under a generated name
    and hands the value/bool compilers ``ColumnRef``s to them — so the
    whole expression machinery (arithmetic guards, 3VL, comparisons)
    applies unchanged at the group level.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.relation = None
        self.windows: dict[int, _Val] = {}
        self._vals: dict[str, _Val] = {}

    def add(self, val: _Val) -> ColumnRef:
        name = f"__group_val_{len(self._vals)}"
        self._vals[name] = val
        return ColumnRef(name=name)

    def column(self, ref: ColumnRef) -> _Val:
        val = self._vals.get(ref.name)
        if val is None:
            raise _Ineligible
        return val

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n, dtype=bool)

    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)


class _Groups:
    """Segmented view of a relation plus the aggregate-context compiler.

    ``rewrite`` mirrors the row path's ``_eval_aggregate_expr`` shape:
    aggregate calls reduce over segments, output-alias column refs bind
    to already-computed item values, other column refs take the group's
    first row, and connective nodes (arithmetic, comparisons, AND/OR,
    CAST) recurse — rebuilt over :class:`_SynthCtx` references so the
    ordinary compilers evaluate them per *group* instead of per row.
    """

    def __init__(self, ctx: _Ctx, codes: np.ndarray | None = None,
                 layout: ScanGroups | None = None) -> None:
        """Segment the rows by ``codes`` (:func:`_key_codes`), or as a
        grouped scan's ``layout`` clustered them.

        One stable sort (a radix sort, :func:`_radix_keys`) lays every
        group out as a contiguous segment of ``order`` (``starts``/
        ``ends``, ascending by code), the layout ``reduceat`` and the
        sorted-segment kernels need; ``order`` is ``None`` (the rows as
        they are) when the codes are already non-decreasing or the scan
        clustered them.  The row path emits groups in first-occurrence
        order instead: a segment's first element is its group's first
        row, so ``emit`` (the argsort of those rows' table positions,
        one entry per group) is the gather to output order.
        """
        self.ctx = ctx
        self.order = None
        if layout is not None:
            self.ends = layout.ends
            self.starts = layout.starts()
            first = layout.positions[self.starts]
        else:
            keys = _radix_keys(codes)
            if not (keys[1:] >= keys[:-1]).all():
                self.order = np.argsort(keys, kind="stable")
                keys = keys[self.order]
            self.starts, self.ends = segment_bounds(keys)
            first = (self.starts if self.order is None
                     else self.order[self.starts])
        self.counts = (self.ends - self.starts).astype(np.int64)
        self.n_groups = int(self.starts.size)
        self.emit = np.argsort(first)
        self.first_rows = (self.starts if layout is not None
                           else first)[self.emit]
        self.vals_ctx = _SynthCtx(self.n_groups)

    def _ordered(self, rows: np.ndarray) -> np.ndarray:
        """A per-row vector (or row indices) in segment order."""
        return rows if self.order is None else rows[self.order]

    def compile(self, expr: Node) -> _Val:
        return _compile_any(self.rewrite(expr, None, None), self.vals_ctx)

    def rewrite(self, expr: Node, columns: list[str] | None,
                item_vals: list[_Val] | None) -> Node:
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, FuncCall) and expr.window is None \
                and is_aggregate(expr.name):
            return self.vals_ctx.add(self.aggregate(expr))
        if isinstance(expr, ColumnRef):
            if columns is not None:
                lowered = expr.name.lower()
                for idx, col in enumerate(columns):
                    if col.lower() == lowered:
                        return self.vals_ctx.add(item_vals[idx])
            return self.vals_ctx.add(self.first_row_column(expr))
        if isinstance(expr, BinaryOp):
            return BinaryOp(op=expr.op,
                            left=self.rewrite(expr.left, columns, item_vals),
                            right=self.rewrite(expr.right, columns,
                                               item_vals))
        if isinstance(expr, UnaryOp):
            return UnaryOp(op=expr.op,
                           operand=self.rewrite(expr.operand, columns,
                                                item_vals))
        if isinstance(expr, Cast):
            return Cast(expr=self.rewrite(expr.expr, columns, item_vals),
                        type_name=expr.type_name)
        if any(isinstance(node, FuncCall)
               and (is_aggregate(node.name) or node.window is not None)
               for node in walk(expr)):
            raise _Ineligible        # aggregate under CASE/IN/...: row path
        # Whole-subtree leaf (Subscript, Between, IsNull, ...): the row
        # path evaluates these on the group's first row only.
        return self.vals_ctx.add(self.first_row_expr(expr))

    def first_row_column(self, ref: ColumnRef) -> _Val:
        idx = self.ctx.relation.resolve(ref.name, ref.table)
        # NULLs derive from the few gathered cells, not the whole column.
        return _column_val(self.ctx.relation.coldata[idx][self.first_rows])

    def first_row_expr(self, expr: Node) -> _Val:
        if _has_window(expr):
            raise _Ineligible
        return _gather_val(_compile_any(expr, self.ctx), self.first_rows)

    def aggregate(self, call: FuncCall) -> _Val:
        """One aggregate call as a per-group value, in output order."""
        if call.name == "COUNT" and (
                not call.args or isinstance(call.args[0], Star)):
            return _Val(data=self.counts[self.emit])
        q = None
        if call.name == "PERCENTILE":
            if len(call.args) != 2:
                raise _Ineligible    # row path raises ExecutionError
            q = _percentile_quantile(_compile_value(call.args[1], self.ctx))
        elif len(call.args) != 1:
            raise _Ineligible        # row path raises ExecutionError
        if _has_window(call.args[0]):
            raise _Ineligible        # row path raises (no window cache)
        val = _compile_any(call.args[0], self.ctx)
        if not call.distinct:
            reduced = self.reduce(call.name, val, q)
        elif call.name == "COUNT":
            reduced = self.count_distinct(val)
        else:
            # Which duplicate survives fixes the order SUM/AVG(DISTINCT)
            # add in: outside bitwise parity, like every other DISTINCT.
            raise _Ineligible
        return _gather_val(reduced, self.emit)

    def reduce(self, name: str, val: _Val, q: float | None = None) -> _Val:
        """One aggregate over every group segment, NULLs excluded.

        Per-segment values in segment order; a group left with fewer
        non-NULL values than the aggregate needs (one; two for STDDEV /
        VARIANCE) yields NULL, as the scalar aggregates do.
        """
        if val.is_const:
            if val.const is None:
                if name == "COUNT":
                    return _Val(data=np.zeros(self.n_groups, dtype=np.int64))
                return _Val(const=None)
            data = np.full(self.ctx.n, val.const)
            if data.dtype == object:
                raise _Ineligible
            val = _Val(data=data)
        dtype = val.data.dtype
        null = _flat_null(val)
        counts = self.counts
        if null is not None and null.any():
            ordered_null = self._ordered(null)
            counts = counts - np.add.reduceat(
                ordered_null.astype(np.int64), self.starts)
        else:
            null = None
        if name == "COUNT":
            if dtype.kind not in _NUMERIC_KINDS and dtype.kind not in "UO":
                raise _Ineligible
            return _Val(data=counts)
        need = 2 if name in ("STDDEV", "VARIANCE") else 1
        if name == "PERCENTILE":
            def kernel(values, starts, ends):
                return segmented_order_stat(values, starts, ends - starts, q)
        else:
            kernel = SEGMENTED_AGGREGATES.get(name)
            if kernel is None:
                raise _Ineligible    # COLLECT_LIST: list cells, row path
        # The row path hands numpy a list of Python cells: only a
        # float64 (or, for the spread, int64) column is that same array.
        if name in ("PERCENTILE", "MEDIAN"):
            accepted = dtype == np.float64
        elif need == 2:
            accepted = dtype == np.float64 or dtype == np.int64
        else:
            accepted = dtype.kind in _NUMERIC_KINDS
        if not accepted:
            raise _Ineligible
        kept = self._ordered(_decode(val).data)
        if null is not None:
            kept = kept[~ordered_null]
        if name in ("MIN", "MAX"):
            _guard_minmax(kept)
        elif name == "PERCENTILE":
            _guard_signed_zeros(kept)
        if null is None and need == 1:
            return _Val(data=kernel(kept, self.starts, self.ends))
        # ``kept`` holds the groups' surviving values back to back;
        # groups with too few are skipped (MIN/MAX/order statistics need
        # contiguous segments, and with need == 1 a skipped group holds
        # no value at all).
        enough = counts >= need
        starts = np.cumsum(counts) - counts
        part = kernel(kept, starts[enough], (starts + counts)[enough])
        if enough.all():
            return _Val(data=part)
        out = np.empty(self.n_groups, dtype=object)    # initialised to None
        for slot, cell in zip(np.flatnonzero(enough).tolist(),
                              part.tolist()):
            out[slot] = cell
        return _Val(data=out, null=~enough)

    def count_distinct(self, val: _Val) -> _Val:
        """``COUNT(DISTINCT expr)`` per segment.

        The value factorizes exactly as a group key would — so DISTINCT
        identity is the row path's set identity, and an encoded operand
        de-duplicates its dictionary first (two series share a tenant) —
        and the distinct (segment, value code) pairs are counted.
        """
        if val.is_const and val.const is None:
            return _Val(data=np.zeros(self.n_groups, dtype=np.int64))
        codes, size = _factorize(val, self.ctx.n)
        size = max(size, 1)
        segment = np.repeat(np.arange(self.n_groups, dtype=np.int64),
                            self.counts)
        pairs = segment * size + self._ordered(codes)
        null = _flat_null(val)
        if null is not None:
            pairs = pairs[~self._ordered(null)]
        return _Val(data=np.bincount(
            np.unique(pairs) // size,
            minlength=self.n_groups).astype(np.int64))


def _percentile_quantile(fraction: _Val) -> float:
    """``PERCENTILE``'s fraction as the quantile ``np.percentile`` derives.

    The row path calls ``np.percentile(values, fraction * 100.0)``,
    which divides the percent by 100 again before indexing; replaying
    both steps gives the kernel bit-identical input.  A per-row,
    non-numeric or out-of-range fraction is the row path's to evaluate
    (or to reject, once per non-empty group).
    """
    if not fraction.is_const or isinstance(fraction.const, bool) \
            or not isinstance(fraction.const, (int, float)):
        raise _Ineligible
    value = float(fraction.const)
    if not 0.0 <= value <= 1.0:
        raise _Ineligible
    return np.true_divide(value * 100.0, 100)


def _guard_minmax(values: np.ndarray) -> None:
    """Fall back where reduceat MIN/MAX could differ from builtin min/max.

    NaN makes Python's builtin min/max order-dependent, and a -0.0/0.0
    mix makes "first minimal value wins" observable; both are outside
    the bitwise-parity subset.
    """
    if values.dtype.kind != "f":
        return
    if np.isnan(values).any():
        raise _Ineligible
    _guard_signed_zeros(values)


def _guard_signed_zeros(values: np.ndarray) -> None:
    """Fall back where *which* of two equal zeros is picked would show.

    -0.0 and 0.0 compare equal, so builtin ``min`` keeps the first, a
    stable sort keeps them in row order and numpy's ``partition`` in
    whatever order introselect leaves — a PERCENTILE landing on one
    (MEDIAN folds the sign away) is outside the bitwise-parity subset.
    """
    zeros = values == 0.0
    if zeros.any() and np.signbit(values[zeros]).any():
        raise _Ineligible


# ---------------------------------------------------------------------------
# Hash equi-join over key-code vectors
# ---------------------------------------------------------------------------
def try_join(kind: str, left, right, equi_pairs, residual,
             build: str = "right"):
    """Columnar hash join; returns the joined _Relation or None.

    Both sides' equi-key expressions compile to vectors and factorize to
    shared integer codes (code -1 for NULL keys, which never match —
    the row path's bucket skip).  Matching is one sort of the build
    side's codes plus a ``searchsorted`` probe per row of the other
    side; candidate pairs expand with ``np.repeat``.  With the default
    ``build="right"`` the pairs come out in exactly the row path's order
    (left-major, right buckets in right-row order); ``build="left"``
    (the executor's choice when the left side is smaller; INNER only)
    sorts the smaller left side instead and restores that
    same order with one lexsort, so the build side never changes the
    output.  Residual conjuncts compile to a 3VL mask over the gathered
    candidate columns.  LEFT/FULL null rows interleave at their left
    row's position via a stable sort; RIGHT/FULL unmatched rows append
    in right-row order.
    """
    from repro.sql.executor import _Relation

    try:
        lcodes, rcodes = _combined_key_codes(equi_pairs, left, right)
        nl, nr = lcodes.size, rcodes.size
        if build == "left" and kind == "INNER":
            l_valid = np.flatnonzero(lcodes >= 0)
            l_order = l_valid[np.argsort(_radix_keys(lcodes[l_valid]),
                                         kind="stable")]
            sorted_l = lcodes[l_order]
            lo = np.searchsorted(sorted_l, rcodes, side="left")
            hi = np.searchsorted(sorted_l, rcodes, side="right")
            counts = hi - lo
            counts[rcodes < 0] = 0
            total = int(counts.sum())
            right_idx = np.repeat(np.arange(nr, dtype=np.intp), counts)
            offsets = np.arange(total, dtype=np.intp) - np.repeat(
                np.cumsum(counts) - counts, counts)
            left_idx = l_order[np.repeat(lo, counts) + offsets]
            # Canonicalise to the build-right emission order.
            order = np.lexsort((right_idx, left_idx))
            left_idx = left_idx[order]
            right_idx = right_idx[order]
        else:
            r_valid = np.flatnonzero(rcodes >= 0)
            r_order = r_valid[np.argsort(_radix_keys(rcodes[r_valid]),
                                         kind="stable")]
            sorted_r = rcodes[r_order]
            lo = np.searchsorted(sorted_r, lcodes, side="left")
            hi = np.searchsorted(sorted_r, lcodes, side="right")
            counts = hi - lo
            counts[lcodes < 0] = 0
            total = int(counts.sum())
            left_idx = np.repeat(np.arange(nl, dtype=np.intp), counts)
            offsets = np.arange(total, dtype=np.intp) - np.repeat(
                np.cumsum(counts) - counts, counts)
            right_idx = r_order[np.repeat(lo, counts) + offsets]
        if residual is not None:
            candidates = _Relation(
                left.columns + right.columns,
                coldata=[col[left_idx] for col in left.coldata]
                + [col[right_idx] for col in right.coldata])
            keep, _ = _compile_bool(residual, _Ctx(candidates))
            left_idx = left_idx[keep]
            right_idx = right_idx[keep]
        if kind in ("LEFT", "FULL"):
            matched_left = np.zeros(nl, dtype=bool)
            matched_left[left_idx] = True
            unmatched = np.flatnonzero(~matched_left)
            if unmatched.size:
                all_left = np.concatenate([left_idx, unmatched])
                all_right = np.concatenate(
                    [right_idx,
                     np.full(unmatched.size, -1, dtype=np.intp)])
                order = np.argsort(all_left, kind="stable")
                left_idx = all_left[order]
                right_idx = all_right[order]
        if kind in ("RIGHT", "FULL"):
            matched_right = np.zeros(nr, dtype=bool)
            matched_right[right_idx[right_idx >= 0]] = True
            tail = np.flatnonzero(~matched_right)
            if tail.size:
                left_idx = np.concatenate(
                    [left_idx, np.full(tail.size, -1, dtype=np.intp)])
                right_idx = np.concatenate([right_idx, tail])
        coldata = ([_gather_or_null(col, left_idx) for col in left.coldata]
                   + [_gather_or_null(col, right_idx)
                      for col in right.coldata])
    except _FALLBACK:
        return None
    return _Relation(left.columns + right.columns, coldata=coldata)


def _combined_key_codes(pairs, left, right
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Joint factorization of every equi-key pair, mixed-radix combined.

    Rows match exactly when every per-pair code matches; a NULL in any
    key makes the whole key -1 (never matching), as in the row path's
    ``any(part is None ...)`` skip.
    """
    lctx, rctx = _Ctx(left), _Ctx(right)
    l_total = np.zeros(lctx.n, dtype=np.int64)
    r_total = np.zeros(rctx.n, dtype=np.int64)
    l_valid = np.ones(lctx.n, dtype=bool)
    r_valid = np.ones(rctx.n, dtype=bool)
    radix = 1
    for lexpr, rexpr in pairs:
        lval = _compile_any(lexpr, lctx)
        rval = _compile_any(rexpr, rctx)
        lc, rc, size = _pair_codes(lval, rval, lctx.n, rctx.n)
        size = max(size, 1)
        radix *= size
        if radix > 2 ** 62:
            raise _Ineligible        # combined code could overflow int64
        l_valid &= lc >= 0
        r_valid &= rc >= 0
        l_total = l_total * size + np.where(lc >= 0, lc, 0)
        r_total = r_total * size + np.where(rc >= 0, rc, 0)
    l_total[~l_valid] = -1
    r_total[~r_valid] = -1
    return l_total, r_total


def _pair_codes(lval: _Val, rval: _Val, nl: int, nr: int
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared dense codes for one equi-key pair (-1 marks NULL).

    Key equality must be Python ``==`` over ``_hashable_row``-converted
    values — the row path's dict-bucket identity.  Float64 coding gives
    that for numeric keys (int/float cross-type equality included) while
    ints stay float64-representable; NaN keys fall back entirely,
    because a dict matches two NaNs only when they are the *same object*
    (possible in self-joins), which no value-based coding can express.
    An encoded side contributes its dictionary to the shared coding and
    gathers its codes from it.
    """
    if lval.codes is not None:
        lcodes, rcodes, size = _pair_codes(
            _dictionary(lval), rval, lval.data.size, nr)
        return lcodes[lval.codes], rcodes, size
    if rval.codes is not None:
        lcodes, rcodes, size = _pair_codes(
            lval, _dictionary(rval), nl, rval.data.size)
        return lcodes, rcodes[rval.codes], size
    if not lval.is_const and not rval.is_const:
        lk, rk = lval.data.dtype.kind, rval.data.dtype.kind
        if lk in "iubf" and rk in "iubf":
            for arr in (lval.data, rval.data):
                if arr.dtype.kind in "iu" and _abs_bound(arr) > 2 ** 53:
                    raise _Ineligible
                if arr.dtype.kind == "f" and np.isnan(arr).any():
                    raise _Ineligible
            lf = lval.data.astype(np.float64)
            rf = rval.data.astype(np.float64)
            uniq = np.unique(np.concatenate([lf, rf]))
            lcodes = np.searchsorted(uniq, lf).astype(np.int64)
            rcodes = np.searchsorted(uniq, rf).astype(np.int64)
        elif lk == "U" and rk == "U":
            uniq = np.unique(np.concatenate([lval.data, rval.data]))
            lcodes = np.searchsorted(uniq, lval.data).astype(np.int64)
            rcodes = np.searchsorted(uniq, rval.data).astype(np.int64)
        elif (lk == "O" and rk == "O"
                and lval.null is None and rval.null is None
                and _all_strings(_column_cells(lval.data))
                and _all_strings(_column_cells(rval.data))):
            uniq, inverse = np.unique(
                np.concatenate([lval.data, rval.data]), return_inverse=True)
            inverse = inverse.reshape(-1).astype(np.int64)
            lcodes = inverse[:nl].copy()
            rcodes = inverse[nl:].copy()
        else:
            return _dict_pair_codes(lval, rval, nl, nr)
        if lval.null is not None:
            lcodes[lval.null] = -1
        if rval.null is not None:
            rcodes[rval.null] = -1
        return lcodes, rcodes, int(uniq.size)
    return _dict_pair_codes(lval, rval, nl, nr)


def _dict_pair_codes(lval: _Val, rval: _Val, nl: int, nr: int
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """General key coding through the row path's own hash conversion."""
    seen: dict = {}
    lcodes = np.empty(nl, dtype=np.int64)
    rcodes = np.empty(nr, dtype=np.int64)
    for cells, codes in ((_val_cells(lval, nl), lcodes),
                         (_val_cells(rval, nr), rcodes)):
        for i, cell in enumerate(cells):
            if cell is None:
                codes[i] = -1
                continue
            key = _hashable_row((cell,))[0]
            if _contains_nan(key):
                raise _Ineligible    # NaN matches by identity in a dict
            code = seen.get(key)
            if code is None:
                code = len(seen)
                seen[key] = code
            codes[i] = code
    return lcodes, rcodes, len(seen)


def _contains_nan(obj: Any) -> bool:
    if isinstance(obj, float):
        return obj != obj
    if isinstance(obj, tuple):
        return any(_contains_nan(part) for part in obj)
    return False


def _gather_or_null(col: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``col[idx]`` where index -1 yields a NULL (outer-join padding)."""
    missing = idx < 0
    if not missing.any():
        return col[idx]
    out = np.empty(idx.size, dtype=object)     # object arrays init to None
    present = np.flatnonzero(~missing)
    cells = _column_cells(col[idx[present]])
    for slot, cell in zip(present.tolist(), cells):
        out[slot] = cell
    return out
