"""Built-in SQL functions: aggregates, scalars, and window functions.

The scalar set covers everything in the paper's Appendix C listings
(CONCAT, SPLIT, GREATEST, AVG, ...) plus the windowing/ranking helpers the
paper lists as benefits of the SQL approach (LAG/LEAD for lagged features,
PERCENTILE for p99-style indicators).  User-defined functions — the
paper's ``hostgroup`` example — are registered on the
:class:`~repro.sql.catalog.Database` and resolved through the same path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.sql.errors import ExecutionError


# ---------------------------------------------------------------------------
# Aggregates: each takes the list of evaluated argument values per group row
# (NULLs already filtered except for COUNT(*)).
# ---------------------------------------------------------------------------
def _agg_avg(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _agg_sum(values: Sequence[float]) -> float | None:
    return float(np.sum(values)) if values else None


def _agg_min(values: Sequence[Any]) -> Any:
    return min(values) if values else None


def _agg_max(values: Sequence[Any]) -> Any:
    return max(values) if values else None


def _agg_count(values: Sequence[Any]) -> int:
    return len(values)


def _agg_stddev(values: Sequence[float]) -> float | None:
    if len(values) < 2:
        return None
    return float(np.std(values, ddof=1))


def _agg_variance(values: Sequence[float]) -> float | None:
    if len(values) < 2:
        return None
    return float(np.var(values, ddof=1))


def _agg_median(values: Sequence[float]) -> float | None:
    return float(np.median(values)) if values else None


def _agg_collect(values: Sequence[Any]) -> list:
    return list(values)


AGGREGATES: dict[str, Callable[[Sequence[Any]], Any]] = {
    "AVG": _agg_avg,
    "SUM": _agg_sum,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "COUNT": _agg_count,
    "STDDEV": _agg_stddev,
    "VARIANCE": _agg_variance,
    "MEDIAN": _agg_median,
    "COLLECT_LIST": _agg_collect,
}

# PERCENTILE(expr, p) is an aggregate with a parameter; handled specially.
PARAMETRIC_AGGREGATES = frozenset({"PERCENTILE"})


def percentile_aggregate(values: Sequence[float], fraction: float) -> float | None:
    """PERCENTILE(values, fraction) with fraction in [0, 1]."""
    if not values:
        return None
    if not 0.0 <= fraction <= 1.0:
        raise ExecutionError(
            f"PERCENTILE fraction must be in [0, 1], got {fraction}"
        )
    return float(np.percentile(values, fraction * 100.0))


def is_aggregate(name: str) -> bool:
    """True when ``name`` is a built-in aggregate function."""
    return name in AGGREGATES or name in PARAMETRIC_AGGREGATES


# ---------------------------------------------------------------------------
# Segmented aggregates: the columnar executor's GROUP BY kernels.  Each
# takes one numeric column already stable-sorted by group code plus the
# (starts, ends) segment boundaries, and returns one value per group.
#
# Parity with the per-group scalar aggregates above is deliberate and
# exact: MIN/MAX use ``reduceat``, which applies the same sequential
# ufunc reduction ``np.min``/``np.max`` apply to each slice; SUM/AVG/
# STDDEV/VARIANCE sum every segment with :func:`_sums`, a
# vectorised copy of numpy's pairwise float summation (``np.add.reduceat``
# adds left to right, so it would differ in the last bits), and replay
# ``np.mean``/``np.var``'s arithmetic on top; MEDIAN/PERCENTILE sort
# every segment at once and index (:func:`segmented_order_stat`).
# ---------------------------------------------------------------------------
def _segmented_min(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    return np.minimum.reduceat(values, starts)


def _segmented_max(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(values, starts)


#: Longer segments get numpy's own call (at most N/256 calls), as does
#: every segment of a call with fewer short ones: it is faster there.  The
#: rest go _CHUNK_ROWS rows per call, bounding overlapping windows' memory.
_LONG_SEGMENT, _FEW_SEGMENTS, _CHUNK_ROWS = 256, 32, 1 << 18


def _sums(values: np.ndarray, starts: np.ndarray,
          lengths: np.ndarray) -> np.ndarray:
    """``np.sum(values[s:s + n], dtype=np.float64)`` per segment, bitwise:
    numpy's ``pairwise_sum`` for every segment in lockstep.  n > 128
    splits at ``n//2 - (n//2) % 8``, one recursive call per tree level;
    n < 8 is ``res = 0.0; res += a[i]``; else eight accumulators start at
    ``a[0..7]``, take each further block of 8, are combined
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and ``+ 0.0`` (the
    reduction's identity), and take the tail in order.  Steps every
    segment takes are one gather; later ones gather only the segments
    still that long, so nothing is padded: memory is O(rows)."""
    split = lengths > 128                    # numpy's PW_BLOCKSIZE
    if split.any():
        s, n = starts[split], lengths[split]
        half = n // 2 - n // 2 % 8
        sums = _sums(values, np.concatenate((s, s + half, starts[~split])),
                     np.concatenate((half, n - half, lengths[~split])))
        out = np.empty(starts.size)
        out[split] = sums[:s.size] + sums[s.size:2 * s.size]
        out[~split] = sums[2 * s.size:]
        return out
    sums = np.zeros(starts.size)
    blocks = lengths // 8
    full = np.flatnonzero(blocks)
    if full.size:                            # longest first: a prefix
        full = full[np.argsort(-blocks[full], kind="stable")]
        fewer, at = -blocks[full], starts[full, None] + np.arange(8)
        common = values[at + 8 * np.arange(-fewer[-1])[:, None, None]]
        r = np.add.accumulate(common, axis=0, dtype=np.float64)[-1]
        alive = np.searchsorted(fewer, -np.arange(-fewer[0])).tolist()
        for k in range(-fewer[-1], -fewer[0]):
            r[:alive[k]] += values[at[:alive[k]] + 8 * k]
        r = r[:, 0::2] + r[:, 1::2]
        sums[full] = (r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3]) + 0.0
    tail, at = lengths - 8 * blocks, starts + 8 * blocks
    for column in values[at + np.arange(tail.min())[:, None]]:
        sums += column
    for k in range(tail.min(), tail.max()):
        live = np.flatnonzero(tail > k)
        sums[live] += values[at[live] + k]
    return sums


def _variance(values: np.ndarray, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """``np.var(ddof=1)`` step for step: mean, deviations, sum of squares."""
    mean = _sums(values, starts, lengths) / lengths
    first = np.cumsum(lengths) - lengths
    rows = np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)
    deviation = values[rows] - np.repeat(mean, lengths)
    return _sums(deviation * deviation, first, lengths) / (lengths - 1)


def _segmented(per_slice: Callable[[np.ndarray], Any],
               vector: Callable[..., np.ndarray]):
    """``vector`` on short segments a chunk at a time, ``per_slice`` (the
    row path's numpy call) on long ones, or on all when few are short."""
    def kernel(values: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
        out = np.empty(starts.size)
        todo = range(starts.size)
        if starts.size >= _FEW_SEGMENTS:
            lengths = ends - starts
            short = np.flatnonzero(lengths <= _LONG_SEGMENT)
            if short.size >= _FEW_SEGMENTS:
                step = _CHUNK_ROWS // int(lengths[short].max())
                with np.errstate(invalid="ignore", over="ignore"):
                    for i in range(0, short.size, step):
                        part = short[i:i + step]
                        out[part] = vector(values, starts[part],
                                           lengths[part])
                todo = np.flatnonzero(lengths > _LONG_SEGMENT)
        for g in todo:
            out[g] = per_slice(values[starts[g]:ends[g]])
        return out
    return kernel


segmented_mean = _segmented(np.mean, lambda v, s, n: _sums(v, s, n) / n)
_float_sum = _segmented(np.sum, _sums)
_segmented_variance = _segmented(lambda a: np.var(a, ddof=1), _variance)
_segmented_stddev = _segmented(lambda a: np.std(a, ddof=1),
                               lambda v, s, n: np.sqrt(_variance(v, s, n)))


def _segmented_sum(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Per-segment ``np.sum`` as float64; integers sum in numpy's wrapping
    accumulator, associative, so running totals' differences are exact."""
    if values.dtype.kind == "f":
        return _float_sum(values, starts, ends)
    accumulator = np.sum(values[:0]).dtype
    totals = np.zeros(values.size + 1, dtype=accumulator)
    np.cumsum(values, dtype=accumulator, out=totals[1:])
    return (totals[ends] - totals[starts]).astype(np.float64)


def segmented_order_stat(values: np.ndarray, starts: np.ndarray,
                         sizes: np.ndarray,
                         q: "float | None") -> np.ndarray:
    """Per-segment median (``q=None``) or linear-method quantile ``q``.

    ``values`` is float64 and holds the segments back to back
    (``starts[g]`` .. ``starts[g] + sizes[g]``, every size >= 1).
    :func:`_sorted_segments` sorts every ragged segment in place (NaNs
    last within each segment, exactly like the ``partition`` inside
    ``np.percentile``); each segment's statistic is then a gather at
    computed indexes.  The arithmetic replicates numpy's own:

    - **median** — odd segments take the middle element; even segments
      take ``(lo + hi) / 2`` (``np.mean`` of the two middles: one add,
      one exact halving).
    - **quantile** — ``q`` must be what ``np.percentile`` itself
      derives, ``np.true_divide(percent, 100)``, so the virtual index
      ``(n - 1) * q`` sees bit-identical inputs.  Below the last index
      the result lerps between ``floor(virtual)`` and its successor,
      with numpy's ``t >= 0.5`` rewrite (``b - diff * (1 - t)`` instead
      of ``a + diff * t``) applied the same way; at or above the last
      index both gather points collapse to the segment's last element
      with ``gamma = virtual + 1`` — the ``-1``-index fixup inside
      ``np.quantile``, wraparound included.
    - any segment containing NaN yields its last (NaN) element (numpy's
      ``slices_having_nans`` override; NaN sorts last, so testing the
      segment's last element is exact).

    Bitwise-identical to calling ``np.median``/``np.percentile`` on
    each segment slice — including the inf/NaN corner cases where the
    lerp's ``inf - inf`` produces NaN — which the property tests pin
    against the per-segment loop.  Serves both the SQL tier's
    ``MEDIAN``/``PERCENTILE`` and the tsdb ``Downsampler``'s ragged
    ``median``/``pNN`` buckets.
    """
    ordered = _sorted_segments(values, starts, sizes)
    last = ordered[starts + sizes - 1]
    if q is None:
        lo = ordered[starts + (sizes - 1) // 2]
        hi = ordered[starts + sizes // 2]
        with np.errstate(invalid="ignore", over="ignore"):
            # ``np.median`` takes ``np.mean`` over the middle slice, and
            # numpy's sum reduction folds in the additive identity — the
            # ``+ 0.0`` normalises a ``-0.0`` middle to ``+0.0`` exactly
            # like the per-segment call does.
            even = (lo + hi + 0.0) / 2.0
            result = np.where(sizes % 2 == 1, lo + 0.0, even)
    else:
        virtual = (sizes - 1).astype(np.float64) * q
        prev = np.floor(virtual)
        gamma = virtual - prev
        prev_idx = prev.astype(np.intp)
        next_idx = prev_idx + 1
        above = virtual >= (sizes - 1)
        prev_idx = np.where(above, sizes - 1, prev_idx)
        next_idx = np.where(above, sizes - 1, next_idx)
        gamma = np.where(above, virtual + 1.0, gamma)
        a = ordered[starts + prev_idx]
        b = ordered[starts + next_idx]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = b - a
            result = np.where(gamma >= 0.5,
                              b - diff * (1.0 - gamma),
                              a + diff * gamma)
    return np.where(np.isnan(last), last, result)


#: Segments longer than this sort alone, one stable ``np.sort`` each;
#: the shorter ones sort together, one ``lexsort`` over ``(segment id,
#: value)``.  Measured on float64 segments of equal length L (8 to 512
#: of them): the per-segment call costs ~2.5 us plus the sort, the
#: shared ``lexsort`` grows faster than linearly in its rows, and they
#: cross between L = 16 and L = 64 (40 segments of 500-800 rows, 25 877
#: in all: 5.1 ms shared, 1.9 ms alone, on a 2-vCPU VM).
_SORT_ALONE = 32


def _sorted_segments(values: np.ndarray, starts: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
    """``values`` with each back-to-back segment sorted in place, NaNs
    last.  Both sorts are stable and compare values alone inside a
    segment, so equal values (``0.0`` and ``-0.0``, or NaNs) keep their
    input order either way and the result does not depend on which
    sort a segment took."""
    alone = sizes > _SORT_ALONE
    if not alone.any():
        ids = np.repeat(np.arange(starts.size, dtype=np.intp), sizes)
        return values[np.lexsort((values, ids))]
    ordered = np.empty_like(values)
    for start, end in zip(starts[alone].tolist(),
                          (starts + sizes)[alone].tolist()):
        ordered[start:end] = np.sort(values[start:end], kind="stable")
    if not alone.all():
        short_starts, short_sizes = starts[~alone], sizes[~alone]
        first = np.cumsum(short_sizes) - short_sizes
        rows = np.arange(int(short_sizes.sum())) + np.repeat(
            short_starts - first, short_sizes)
        ids = np.repeat(np.arange(short_starts.size, dtype=np.intp),
                        short_sizes)
        short = values[rows]
        ordered[rows] = short[np.lexsort((short, ids))]
    return ordered


def _segmented_median(values: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray) -> np.ndarray:
    return segmented_order_stat(values, starts, ends - starts, None)


SEGMENTED_AGGREGATES: dict[str, Callable[
        [np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    "MIN": _segmented_min,
    "MAX": _segmented_max,
    "SUM": _segmented_sum,
    "AVG": segmented_mean,
    "STDDEV": _segmented_stddev,
    "VARIANCE": _segmented_variance,
    "MEDIAN": _segmented_median,
}


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------
def _require(args: Sequence[Any], count: int, name: str) -> None:
    if len(args) != count:
        raise ExecutionError(f"{name} expects {count} argument(s), got {len(args)}")


def _scalar_concat(*args: Any) -> str | None:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _scalar_split(*args: Any) -> list[str] | None:
    _require(args, 2, "SPLIT")
    text, sep = args
    if text is None:
        return None
    return str(text).split(str(sep))


def _scalar_greatest(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _scalar_least(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _scalar_coalesce(*args: Any) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _numeric_unary(fn: Callable[[float], float], name: str):
    def wrapper(*args: Any) -> float | None:
        _require(args, 1, name)
        if args[0] is None:
            return None
        try:
            return float(fn(float(args[0])))
        except (ValueError, OverflowError) as exc:
            raise ExecutionError(f"{name}({args[0]!r}) failed: {exc}") from exc
    return wrapper


def _scalar_round(*args: Any) -> float | None:
    if len(args) not in (1, 2):
        raise ExecutionError("ROUND expects 1 or 2 arguments")
    if args[0] is None:
        return None
    digits = int(args[1]) if len(args) == 2 and args[1] is not None else 0
    return float(round(float(args[0]), digits))

def _scalar_power(*args: Any) -> float | None:
    _require(args, 2, "POWER")
    if args[0] is None or args[1] is None:
        return None
    return float(math.pow(float(args[0]), float(args[1])))


def _scalar_substr(*args: Any) -> str | None:
    if len(args) not in (2, 3):
        raise ExecutionError("SUBSTR expects 2 or 3 arguments")
    text = args[0]
    if text is None:
        return None
    text = str(text)
    start = int(args[1])
    # SQL SUBSTR is 1-based.
    begin = start - 1 if start > 0 else max(len(text) + start, 0)
    if len(args) == 3:
        length = int(args[2])
        return text[begin:begin + length]
    return text[begin:]


def _scalar_upper(*args: Any) -> str | None:
    _require(args, 1, "UPPER")
    return None if args[0] is None else str(args[0]).upper()


def _scalar_lower(*args: Any) -> str | None:
    _require(args, 1, "LOWER")
    return None if args[0] is None else str(args[0]).lower()


def _scalar_trim(*args: Any) -> str | None:
    _require(args, 1, "TRIM")
    return None if args[0] is None else str(args[0]).strip()


def _scalar_length(*args: Any) -> int | None:
    _require(args, 1, "LENGTH")
    return None if args[0] is None else len(args[0])


def _scalar_replace(*args: Any) -> str | None:
    _require(args, 3, "REPLACE")
    if args[0] is None:
        return None
    return str(args[0]).replace(str(args[1]), str(args[2]))


def _scalar_if(*args: Any) -> Any:
    _require(args, 3, "IF")
    return args[1] if args[0] else args[2]


def _scalar_nullif(*args: Any) -> Any:
    _require(args, 2, "NULLIF")
    return None if args[0] == args[1] else args[0]


def _scalar_map(*args: Any) -> dict:
    if len(args) % 2 != 0:
        raise ExecutionError("MAP expects an even number of arguments")
    return {str(args[i]): args[i + 1] for i in range(0, len(args), 2)}


def _scalar_map_keys(*args: Any) -> list | None:
    _require(args, 1, "MAP_KEYS")
    if args[0] is None:
        return None
    if not isinstance(args[0], dict):
        raise ExecutionError("MAP_KEYS expects a map argument")
    return list(args[0].keys())


def _scalar_map_values(*args: Any) -> list | None:
    _require(args, 1, "MAP_VALUES")
    if args[0] is None:
        return None
    if not isinstance(args[0], dict):
        raise ExecutionError("MAP_VALUES expects a map argument")
    return list(args[0].values())


SCALARS: dict[str, Callable[..., Any]] = {
    "CONCAT": _scalar_concat,
    "SPLIT": _scalar_split,
    "GREATEST": _scalar_greatest,
    "LEAST": _scalar_least,
    "COALESCE": _scalar_coalesce,
    "ABS": _numeric_unary(abs, "ABS"),
    "LOG": _numeric_unary(math.log, "LOG"),
    "LOG10": _numeric_unary(math.log10, "LOG10"),
    "LN": _numeric_unary(math.log, "LN"),
    "EXP": _numeric_unary(math.exp, "EXP"),
    "SQRT": _numeric_unary(math.sqrt, "SQRT"),
    "FLOOR": _numeric_unary(math.floor, "FLOOR"),
    "CEIL": _numeric_unary(math.ceil, "CEIL"),
    "ROUND": _scalar_round,
    "POWER": _scalar_power,
    "SUBSTR": _scalar_substr,
    "SUBSTRING": _scalar_substr,
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "TRIM": _scalar_trim,
    "LENGTH": _scalar_length,
    "REPLACE": _scalar_replace,
    "IF": _scalar_if,
    "NULLIF": _scalar_nullif,
    "MAP": _scalar_map,
    "MAP_KEYS": _scalar_map_keys,
    "MAP_VALUES": _scalar_map_values,
}

# ---------------------------------------------------------------------------
# Segmented window kernels: the columnar executor's window-function
# machinery.  A statement's rows are lexsorted by (partition code, ORDER
# BY keys); each partition is then one contiguous segment
# ``[starts[g]:ends[g]]`` of the sorted order, and every kernel computes
# one whole window column over those segments at once instead of
# evaluating the function row by row.  Parity with
# :func:`eval_window_function` is exact: the kernels perform the same
# arithmetic (``np.mean`` over the same slice, the same comparison
# counts) the per-row evaluator performs.
# ---------------------------------------------------------------------------
def segment_bounds(sorted_codes: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of equal-code runs in an already-sorted code vector."""
    n = sorted_codes.size
    if n == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy()
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate([[0], boundaries]).astype(np.intp)
    ends = np.concatenate([boundaries, [n]]).astype(np.intp)
    return starts, ends


def segment_positions(starts: np.ndarray, ends: np.ndarray, n: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sorted-position (segment start, segment length, offset in segment)."""
    lengths = ends - starts
    seg_start = np.repeat(starts, lengths)
    seg_len = np.repeat(lengths, lengths)
    pos = np.arange(n, dtype=np.intp) - seg_start
    return seg_start, seg_len, pos


def segmented_shift_targets(seg_start: np.ndarray, seg_len: np.ndarray,
                            pos: np.ndarray, offset: int, lead: bool
                            ) -> tuple[np.ndarray, np.ndarray]:
    """LAG/LEAD source positions: (global target index, in-bounds mask)."""
    target = pos + offset if lead else pos - offset
    valid = (target >= 0) & (target < seg_len)
    return seg_start + np.clip(target, 0, np.maximum(seg_len - 1, 0)), valid


def segmented_rank(values: np.ndarray, uncounted: np.ndarray,
                   starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """RANK(expr): 1 + count of comparable segment values strictly less.

    ``uncounted`` marks NULL/NaN positions — per the row evaluator they
    neither count toward any rank nor rank above anything (rank 1).
    """
    out = np.empty(values.size, dtype=np.int64)
    for s, e in zip(starts.tolist(), ends.tolist()):
        seg = values[s:e]
        skip = uncounted[s:e]
        ordered = np.sort(seg[~skip])
        counts = np.searchsorted(ordered, seg, side="left")
        counts[skip] = 0
        out[s:e] = counts + 1
    return out


def segmented_moving_avg(values: np.ndarray, starts: np.ndarray,
                         ends: np.ndarray, window: int) -> np.ndarray:
    """MOVING_AVG over NULL-free values: the per-row evaluator's ``np.mean``
    of each trailing window ``[max(s, i - window + 1), i + 1)``, every
    window one (overlapping) segment of :func:`segmented_mean`."""
    rows = np.arange(values.size)
    first = np.maximum(np.repeat(starts, ends - starts), rows - window + 1)
    return segmented_mean(values, first, rows + 1)


# Window functions computed over an ordered partition.
WINDOW_FUNCTIONS = frozenset({"LAG", "LEAD", "ROW_NUMBER", "RANK", "MOVING_AVG"})


def eval_window_function(name: str, arg_rows: list[tuple],
                         order_index: int) -> Any:
    """Evaluate one window function for the row at ``order_index``.

    ``arg_rows`` holds the evaluated argument tuple for every row of the
    (already ordered) partition.
    """
    if name == "ROW_NUMBER":
        return order_index + 1
    if name == "RANK" and (not arg_rows or not arg_rows[order_index]):
        # Argument-free RANK: rank within the ordered partition.  Ties in
        # the ORDER BY key are not collapsed (dense ordering).
        return order_index + 1
    args = arg_rows[order_index]
    if name in ("LAG", "LEAD"):
        offset = int(args[1]) if len(args) > 1 and args[1] is not None else 1
        default = args[2] if len(args) > 2 else None
        target = order_index - offset if name == "LAG" else order_index + offset
        if 0 <= target < len(arg_rows):
            return arg_rows[target][0]
        return default
    if name == "MOVING_AVG":
        window = int(args[1]) if len(args) > 1 and args[1] is not None else 5
        lo = max(0, order_index - window + 1)
        values = [arg_rows[i][0] for i in range(lo, order_index + 1)
                  if arg_rows[i][0] is not None]
        return float(np.mean(values)) if values else None
    if name == "RANK":
        value = args[0]
        better = sum(1 for row in arg_rows if row[0] is not None
                     and value is not None and row[0] < value)
        return better + 1
    raise ExecutionError(f"unknown window function {name}")
