"""``segmented_order_stat`` sorts long segments alone and short ones
together; either way each segment comes out in the order one ``lexsort``
over ``(segment id, value)`` gives, and the statistic equals the
per-segment numpy call."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sql.functions import (
    _SORT_ALONE,
    _sorted_segments,
    segmented_order_stat,
)

#: A NaN with another payload than ``np.nan``: which NaN ends a
#: segment must not depend on the sort either.
OTHER_NAN = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(),
                          dtype=np.float64)[0]
EDGES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, OTHER_NAN, 2.5]
#: Sizes on both sides of the threshold, so calls mix both sorts.
SIZES = st.one_of(st.integers(1, 4),
                  st.integers(_SORT_ALONE - 1, _SORT_ALONE + 1),
                  st.integers(60, 300))


@st.composite
def segments(draw):
    sizes = draw(st.lists(SIZES, min_size=1, max_size=12))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = np.round(rng.standard_normal(n), 1)     # ties, ±0.0
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.sampled_from(EDGES)),
                                  max_size=8)):
        values[i] = value
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
    return values, starts, np.asarray(sizes, dtype=np.intp)


@settings(max_examples=120, deadline=None)
@given(segments())
def test_sorted_segments_equal_one_lexsort(case):
    values, starts, sizes = case
    ids = np.repeat(np.arange(sizes.size), sizes)
    want = values[np.lexsort((values, ids))]
    assert _sorted_segments(values, starts, sizes).tobytes() == \
        want.tobytes()


@settings(max_examples=80, deadline=None)
@given(segments(), st.sampled_from([None, 0.5, 0.95, 0.99, 0.0, 1.0]))
def test_mixed_segments_equal_the_per_segment_call(case, q):
    values, starts, sizes = case
    # np.percentile partitions rather than sorts, so which of 0.0 and
    # -0.0 it interpolates from, and which NaN it returns, are not
    # their input order; compare the statistic on zeros of one sign and
    # NaNs of one payload (the sort test above covers the order).
    values[values == 0.0] = 0.0
    values[np.isnan(values)] = np.nan
    if q is not None:
        q = np.true_divide(q * 100, 100)
    want = []
    for start, size in zip(starts.tolist(), sizes.tolist()):
        chunk = values[start:start + size]
        with np.errstate(invalid="ignore", over="ignore"):
            want.append(np.median(chunk) if q is None
                        else np.percentile(chunk, q * 100))
    got = segmented_order_stat(values, starts, sizes, q)
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
