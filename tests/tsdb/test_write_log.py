"""What a store's views record about the writes between them.

``_view_locked`` drains each shard's written columns into the new view,
in write order, and logs their series: ``StoreView.written_since`` then
names what changed since an older view without comparing any column,
and answers ``None`` once the log no longer reaches back.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tsdb.model import SeriesId
from repro.tsdb.storage import WRITE_LOG_VIEWS, TimeSeriesStore

A = SeriesId.make("a")
B = SeriesId.make("b")


def test_series_first_written_in_one_version_keep_write_order():
    for first, second in ((A, B), (B, A)):
        store = TimeSeriesStore(n_shards=1)
        store.insert(first, 0, 0.0)
        store.insert(second, 0, -0.0)
        view = store.read_view()
        assert list(view._columns) == [first, second]
        # The 0.0 / -0.0 tie of value_range goes to the first written.
        low, high = view.value_range()
        assert math.copysign(1.0, low) == math.copysign(1.0, high) == 1.0


def test_written_since_names_the_series_written_between_views():
    store = TimeSeriesStore(n_shards=2)
    store.insert_array(A, [0, 1, 2], [1.0, 2.0, 3.0])
    store.insert_array(B, [0, 1, 2], [1.0, 2.0, 3.0])
    old = store.read_view()
    assert old.written_since(old.version) == set()
    store.insert(A, 3, 4.0)
    middle = store.read_view()
    store.apply(B, lambda ts, vs: vs * 2.0)
    new = store.read_view()
    assert new.written_since(middle.version) == {B}
    assert new.written_since(old.version) == {A, B}
    assert middle.written_since(old.version) == {A}
    # A newer view than the asking one, or a version no view was frozen
    # at, cannot be answered from the log.
    assert middle.written_since(new.version) is None
    store.insert(A, 4, 5.0)
    store.insert(A, 5, 6.0)
    assert store.read_view().written_since(new.version + 1) is None
    assert store.read_view().written_since(new.version) == {A}


def test_joined_series_are_written():
    store = TimeSeriesStore()
    store.insert(A, 0, 1.0)
    old = store.read_view()
    store.insert(B, 0, 1.0)
    assert store.read_view().written_since(old.version) == {B}


def test_the_log_reaches_back_a_bounded_number_of_views():
    store = TimeSeriesStore()
    store.insert(A, 0, 0.0)
    first = store.read_view()
    for k in range(WRITE_LOG_VIEWS):
        store.insert(A, k + 1, 0.0)
        store.read_view()
    assert store.read_view().written_since(first.version) == {A}
    store.insert(A, WRITE_LOG_VIEWS + 1, 0.0)       # one view too many
    assert store.read_view().written_since(first.version) is None
    second = store.read_view()
    store.insert(B, 0, 0.0)
    assert store.read_view().written_since(second.version) == {B}
    assert len(store.read_view()._log) == WRITE_LOG_VIEWS


SERIES = [SeriesId.make("m", {"h": str(k)}) for k in range(5)]
OPS = st.lists(st.one_of(
    st.tuples(st.just("point"), st.integers(0, 4)),
    st.tuples(st.just("bulk"), st.integers(0, 4), st.integers(1, 3)),
    st.tuples(st.just("apply"), st.integers(0, 4)),
    st.tuples(st.just("view"),),
), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=OPS, n_shards=st.sampled_from([1, 3]))
def test_written_since_equals_the_identity_comparison(ops, n_shards):
    """Against every older view the log still reaches, the written set
    is exactly the series whose frozen column is not the identical
    object (plus the series that joined)."""
    store = TimeSeriesStore(n_shards=n_shards)
    last = {}
    views = [store.read_view()]
    for op in ops:
        kind = op[0]
        if kind == "view":
            views.append(store.read_view())
            continue
        series = SERIES[op[1]]
        if kind == "apply":
            if series in last:
                store.apply(series, lambda ts, vs: vs + 1.0)
            continue
        count = 1 if kind == "point" else op[2]
        start = last.get(series, -1) + 1
        stamps = np.arange(start, start + count, dtype=np.int64)
        if kind == "point":
            store.insert(series, int(stamps[0]), 1.0)
        else:
            store.insert_array(series, stamps, np.ones(count))
        last[series] = int(stamps[-1])
    views.append(store.read_view())
    newest = views[-1]
    for older in views[:-1]:
        written = newest.written_since(older.version)
        distinct = len({v.version for v in views if v.version >
                        older.version})
        if distinct > WRITE_LOG_VIEWS:
            assert written is None
            continue
        expected = {s for s in newest.series_ids()
                    if s not in older or older.get(s) is not newest.get(s)}
        assert written == expected
