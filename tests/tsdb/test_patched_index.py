"""A view's ``tsdb`` index patched from an earlier view's.

``adapter._build_index`` derives a view's index from the newest earlier
view that still keeps one (``StoreView.derived_before``) when only
written series changed since: their new rows are merged in, their
values rewritten, every other series' positions shifted.  The result
must equal the index built from every column, field for field, and the
earlier index must not change: requests pinned to its view still read
it.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tsdb import SeriesId, TimeSeriesStore, adapter, tsdb_table
from repro.tsdb.storage import WRITE_LOG_VIEWS
from tests.tsdb.index_parity import assert_index_equal, cold_index

SERIES = [SeriesId.make(f"m{i % 3}", {"host": f"h{i}"}) for i in range(7)]


@pytest.fixture
def patches(monkeypatch):
    """``True`` per index patched, ``False`` per patch refused."""
    made = []
    real = adapter._patched_index

    def spy(*args):
        index = real(*args)
        made.append(index is not None)
        return index

    monkeypatch.setattr(adapter, "_patched_index", spy)
    return made


def filled(seed=0, n=24):
    """Series with overlapping, repeating timestamps and some NaNs."""
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore()
    for series in SERIES:
        ts = np.sort(rng.integers(0, n, n))
        values = rng.standard_normal(n)
        values[rng.random(n) < 0.1] = np.nan
        store.insert_array(series, ts, values)
    return store


def index(view):
    return view.derived(adapter._build_index)


def frozen_bytes(index):
    """Everything an index holds, as bytes: to show it never changes."""
    columns = index.table.column_vectors()
    parts = [columns[0], columns[1].codes, columns[2].codes, columns[3],
             index.positions, index.ends, *index.zones]
    parts += [ts for _, ts in index.series.values()]
    return [np.ascontiguousarray(part).tobytes() for part in parts]


def last_ts(store, series):
    return int(store.arrays(series)[0][-1])


WRITES = {
    "append": lambda s: s.insert_array(
        SERIES[2], last_ts(s, SERIES[2]) + np.arange(3), [1.0, 2.0, 3.0]),
    "equal-timestamps": lambda s: s.insert_array(
        SERIES[4], [last_ts(s, SERIES[4])] * 3, [np.nan, -0.0, 5.0]),
    "one-point": lambda s: s.insert(SERIES[0], last_ts(s, SERIES[0]), 9.0),
    "apply": lambda s: s.apply(SERIES[5], lambda ts, vs: vs * 2.0 - 1.0),
    "past-every-row": lambda s: s.insert_array(
        SERIES[6], [10_000, 10_001], [1.0, 2.0]),
    "two-series": lambda s: (
        s.insert_array(SERIES[1], [last_ts(s, SERIES[1])], [7.0]),
        s.apply(SERIES[3], lambda ts, vs: -vs)),
}


@pytest.mark.parametrize("write", WRITES.values(), ids=WRITES.keys())
def test_a_write_patches_the_previous_index(write, patches):
    store = filled()
    before = store.read_view()
    old = index(before)
    old_bytes = frozen_bytes(old)
    write(store)
    after = store.read_view()
    patched = index(after)
    assert patches == [True]
    assert_index_equal(patched, cold_index(after))
    assert frozen_bytes(old) == old_bytes
    assert index(before) is old


def test_the_patch_reaches_back_over_views_without_an_index(patches):
    store = filled()
    kept = store.read_view()
    index(kept)
    skipped = []
    for k in range(3):
        store.insert(SERIES[k], last_ts(store, SERIES[k]) + 1, float(k))
        skipped.append(store.read_view())       # frozen, never indexed
    view = store.read_view()
    assert_index_equal(index(view), cold_index(view))
    assert patches == [True]


def test_a_series_joining_builds_from_every_column(patches):
    store = filled()
    index(store.read_view())
    store.insert(SeriesId.make("m0", {"host": "new"}), 3, 1.0)
    view = store.read_view()
    assert_index_equal(index(view), cold_index(view))
    assert patches == []


def test_a_log_that_no_longer_reaches_back_builds_from_every_column(
        patches):
    store = filled()
    first = store.read_view()
    index(first)
    for k in range(WRITE_LOG_VIEWS + 1):
        store.insert(SERIES[0], last_ts(store, SERIES[0]) + 1, float(k))
        store.read_view()
    view = store.read_view()
    assert view.written_since(first.version) is None
    assert_index_equal(index(view), cold_index(view))
    assert patches == []


def test_a_view_keeps_no_earlier_view_alive():
    store = filled()
    view = store.read_view()
    index(view)
    ref = weakref.ref(view)
    store.insert(SERIES[0], last_ts(store, SERIES[0]) + 1, 1.0)
    del view
    newer = store.read_view()
    index(newer)
    gc.collect()
    assert ref() is None
    assert len(tsdb_table(newer)) == store.num_points()


def test_an_empty_store_patches_nothing(patches):
    store = TimeSeriesStore()
    empty = store.read_view()
    index(empty)
    store.insert(SERIES[0], 1, 1.0)
    view = store.read_view()
    assert_index_equal(index(view), cold_index(view))
    assert patches == []


# ---------------------------------------------------------------------------
# Any sequence of writes
# ---------------------------------------------------------------------------

steps = st.lists(st.tuples(
    st.sampled_from(["append", "point", "apply", "join", "view"]),
    st.integers(0, len(SERIES) - 1),
    st.integers(0, 3),                     # timestamp step (0: equal)
    st.integers(1, 4)),                    # points
    min_size=1, max_size=25)


@given(st.integers(0, 2 ** 16), steps)
@settings(max_examples=60, deadline=None)
def test_every_patched_index_equals_a_cold_build(seed, plan):
    """Appends (equal timestamps included), one-point inserts, value
    rewrites and joins, with views indexed at random steps and at most
    the registry's views alive: every index equals a cold build."""
    store = filled(seed)
    rng = np.random.default_rng(seed)
    joined = 0
    alive = [store.read_view()]
    index(alive[0])
    for kind, k, step, n in plan:
        series = SERIES[k]
        if kind == "append":
            ts = last_ts(store, series) + step * np.arange(n) + step
            store.insert_array(series, ts, rng.standard_normal(n))
        elif kind == "point":
            store.insert(series, last_ts(store, series) + step, float(n))
        elif kind == "apply":
            store.apply(series, lambda ts, vs: np.where(vs > 0, vs, np.nan))
        elif kind == "join":
            joined += 1
            store.insert(SeriesId.make("m9", {"host": f"j{joined}"}),
                         step, float(n))
        else:
            view = store.read_view()
            assert_index_equal(index(view), cold_index(view))
            alive = (alive + [view])[-2:]
    view = store.read_view()
    assert_index_equal(index(view), cold_index(view))
