"""Unit tests for SQL functions, UDF registration and the segmented
aggregate kernels."""

import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.sql import Database, ExecutionError, Table
from repro.sql.functions import (
    SEGMENTED_AGGREGATES,
    _CHUNK_ROWS,
    _FEW_SEGMENTS,
    _LONG_SEGMENT,
    segmented_mean,
    segmented_moving_avg,
)


@pytest.fixture
def db1() -> Database:
    db = Database()
    db.register("t", Table(["s", "x"], [("web-1", 2.0)]))
    return db


def scalar(db1: Database, expr: str):
    return db1.sql(f"SELECT {expr} AS out FROM t").rows[0][0]


class TestStringFunctions:
    def test_concat(self, db1):
        assert scalar(db1, "CONCAT('a', 'b', 1)") == "ab1"

    def test_concat_null_propagates(self, db1):
        assert scalar(db1, "CONCAT('a', NULL)") is None

    def test_split_and_index(self, db1):
        assert scalar(db1, "SPLIT(s, '-')[0]") == "web"
        assert scalar(db1, "SPLIT(s, '-')[1]") == "1"

    def test_split_negative_index(self, db1):
        assert scalar(db1, "SPLIT(s, '-')[-1]") == "1"

    def test_split_out_of_range_is_null(self, db1):
        assert scalar(db1, "SPLIT(s, '-')[9]") is None

    def test_upper_lower_trim(self, db1):
        assert scalar(db1, "UPPER('ab')") == "AB"
        assert scalar(db1, "LOWER('AB')") == "ab"
        assert scalar(db1, "TRIM('  x ')") == "x"

    def test_substr_one_based(self, db1):
        assert scalar(db1, "SUBSTR('hello', 2, 3)") == "ell"
        assert scalar(db1, "SUBSTR('hello', 2)") == "ello"

    def test_replace(self, db1):
        assert scalar(db1, "REPLACE('a-b-c', '-', '.')") == "a.b.c"

    def test_length(self, db1):
        assert scalar(db1, "LENGTH('abc')") == 3


class TestNumericFunctions:
    def test_abs(self, db1):
        assert scalar(db1, "ABS(-3)") == 3.0

    def test_log_exp_sqrt(self, db1):
        assert scalar(db1, "LOG(EXP(1))") == pytest.approx(1.0)
        assert scalar(db1, "SQRT(16)") == 4.0

    def test_log_of_negative_raises(self, db1):
        with pytest.raises(ExecutionError):
            scalar(db1, "LOG(-1)")

    def test_round(self, db1):
        assert scalar(db1, "ROUND(2.567, 1)") == 2.6
        assert scalar(db1, "ROUND(2.5)") == 2.0

    def test_floor_ceil(self, db1):
        assert scalar(db1, "FLOOR(2.7)") == 2.0
        assert scalar(db1, "CEIL(2.1)") == 3.0

    def test_power(self, db1):
        assert scalar(db1, "POWER(2, 10)") == 1024.0

    def test_greatest_least_skip_nulls(self, db1):
        assert scalar(db1, "GREATEST(1, NULL, 3)") == 3
        assert scalar(db1, "LEAST(1, NULL, 3)") == 1
        assert scalar(db1, "GREATEST(NULL, NULL)") is None


class TestConditionalFunctions:
    def test_coalesce(self, db1):
        assert scalar(db1, "COALESCE(NULL, NULL, 5)") == 5
        assert scalar(db1, "COALESCE(NULL, NULL)") is None

    def test_if(self, db1):
        assert scalar(db1, "IF(x > 1, 'big', 'small')") == "big"

    def test_nullif(self, db1):
        assert scalar(db1, "NULLIF(2, 2)") is None
        assert scalar(db1, "NULLIF(2, 3)") == 2


class TestMapFunctions:
    def test_map_construction_and_access(self, db1):
        assert scalar(db1, "MAP('a', 1, 'b', 2)['b']") == 2

    def test_map_keys_values(self, db1):
        assert scalar(db1, "MAP_KEYS(MAP('a', 1))") == ["a"]
        assert scalar(db1, "MAP_VALUES(MAP('a', 1))") == [1]

    def test_map_odd_args_rejected(self, db1):
        with pytest.raises(ExecutionError):
            scalar(db1, "MAP('a')")

    def test_missing_map_key_is_null(self, db1):
        assert scalar(db1, "MAP('a', 1)['z']") is None


class TestUdfs:
    def test_hostgroup_udf(self, db1):
        """The paper's UDF example: hostgroup instead of SPLIT[0]."""
        db1.register_udf("hostgroup", lambda h: h.split("-")[0])
        assert scalar(db1, "hostgroup(s)") == "web"

    def test_udf_case_insensitive(self, db1):
        db1.register_udf("MyFn", lambda v: v * 10)
        assert scalar(db1, "myfn(x)") == 20.0

    def test_udf_error_wrapped(self, db1):
        db1.register_udf("boom", lambda v: 1 / 0)
        with pytest.raises(ExecutionError, match="BOOM"):
            scalar(db1, "boom(x)")

    def test_udf_in_group_by(self, db1):
        db = Database()
        db.register("hosts", Table(
            ["host"], [("web-1",), ("web-2",), ("db-1",)]))
        db.register_udf("hostgroup", lambda h: h.split("-")[0])
        result = db.sql(
            "SELECT hostgroup(host) g, COUNT(*) c FROM hosts "
            "GROUP BY hostgroup(host) ORDER BY g")
        assert result.rows == [("db", 1), ("web", 2)]


# Segment lengths where numpy's pairwise summation changes shape: the
# sequential case (< 8), the 8-accumulator block (<= 128), each extra
# level of halving, the per-slice cutoff, and (integer input only) the
# 8192-element buffer numpy casts through.
BOUNDARY_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257,
                    _LONG_SEGMENT - 1, _LONG_SEGMENT, _LONG_SEGMENT + 1]
INT_BUFFER_LENGTHS = [8191, 8192, 8193]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
                     -1e300])
REFERENCE = {
    "SUM": np.sum,
    "AVG": np.mean,
    "VARIANCE": lambda a: np.var(a, ddof=1),
    "STDDEV": lambda a: np.std(a, ddof=1),
}


@st.composite
def segmented_columns(draw):
    """``(values, starts, ends)``: back-to-back or overlapping segments
    over a column of one of the dtypes SQL aggregates accept."""
    dtype = draw(st.sampled_from(
        ["float64", "float32", "int64", "int32", "bool"]))
    pool = BOUNDARY_LENGTHS + (
        INT_BUFFER_LENGTHS if dtype in ("int64", "int32") else [])
    # Few segments take numpy's own call; enough take the vector path.
    count = draw(st.sampled_from([1, 5, _FEW_SEGMENTS, 2 * _FEW_SEGMENTS]))
    lengths = np.asarray(draw(st.lists(
        st.one_of(st.sampled_from(pool), st.integers(1, 300)),
        min_size=count, max_size=count)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    overlapping = draw(st.booleans())
    n = int(lengths.max() + 50 if overlapping else lengths.sum())
    if dtype.startswith("float"):
        top = 300 if dtype == "float64" else 37
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-top, top, n)
        special = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.3]))
        values[special] = rng.choice(SPECIALS, int(special.sum()))
        with np.errstate(over="ignore"):
            values = values.astype(dtype)
    elif dtype == "bool":
        values = rng.random(n) < 0.5
    else:
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, n, dtype=dtype,
                              endpoint=True)
    if overlapping:
        starts = rng.integers(0, n - lengths + 1)
    else:
        starts = np.cumsum(lengths) - lengths
    return values, starts, starts + lengths


def _same_bits(got, want) -> bool:
    """Bitwise float64 equality; any NaN equals any NaN (the payload of
    an ``inf + -inf`` NaN is not part of the contract)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return bool(np.all((got.view(np.int64) == want.view(np.int64))
                       | (np.isnan(got) & np.isnan(want))))


class TestSegmentedKernels:
    """The vectorised pairwise-summation kernels against numpy's own
    call on each segment.  float32 columns are widened first, as the
    columnar tier widens them before any kernel sees them."""

    @given(segmented_columns(), st.sampled_from(sorted(REFERENCE)))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_per_segment(self, column, name):
        values, starts, ends = column
        if name in ("VARIANCE", "STDDEV"):
            keep = ends - starts >= 2
            starts, ends = starts[keep], ends[keep]
        if values.dtype == np.float32:
            values = values.astype(np.float64)
        with np.errstate(all="ignore"):
            got = SEGMENTED_AGGREGATES[name](values, starts, ends)
            want = [REFERENCE[name](values[s:e])
                    for s, e in zip(starts.tolist(), ends.tolist())]
        assert _same_bits(got, want), name

    def test_sum_of_negative_zeros_is_positive_zero(self):
        # np.sum adds the total into the identity 0.0.
        values = np.full(300, -0.0)
        starts = np.arange(0, 300, 15)
        got = SEGMENTED_AGGREGATES["SUM"](values, starts, starts + 15)
        assert _same_bits(got, np.zeros(20))

    def test_moving_windows_are_overlapping_segments(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(400) * 1e6
        ends = np.arange(1, 401)
        starts = np.maximum(ends - 9, 0)
        want = [np.mean(values[s:e]) for s, e in zip(starts, ends)]
        assert _same_bits(segmented_mean(values, starts, ends), want)


def _peak_bytes(call):
    """``call()`` and the most memory numpy held at once while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSegmentedKernelMemory:
    """The kernels' temporaries grow with the rows summed, not with the
    number of segments times the longest one."""

    def test_skewed_groups_are_not_padded(self):
        # Many one-row groups beside one 128-row group, which is summed
        # in 8-row blocks without being split.
        lengths = np.r_[np.ones(50_000, dtype=np.int64), 128]
        values = np.random.default_rng(2).standard_normal(lengths.sum())
        starts = np.cumsum(lengths) - lengths
        got, peak = _peak_bytes(
            lambda: segmented_mean(values, starts, starts + lengths))
        assert peak < 32 * values.nbytes
        assert _same_bits(got, [np.mean(values[s:s + n])
                                for s, n in zip(starts, lengths)])

    def test_long_moving_windows_are_summed_in_chunks(self):
        # 20 000 overlapping windows of 200 rows add up to 4e6 rows.
        values = np.random.default_rng(3).standard_normal(20_000)
        got, peak = _peak_bytes(lambda: segmented_moving_avg(
            values, np.array([0]), np.array([values.size]), 200))
        assert peak < 32 * values.nbytes + 32 * _CHUNK_ROWS
        assert _same_bits(got, [np.mean(values[max(0, i - 199):i + 1])
                                for i in range(values.size)])
