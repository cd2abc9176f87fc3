"""Property-based tests for the tsdb substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tsdb import SeriesId, TimeSeriesStore
from repro.tsdb.persist import dumps_store, loads_store
from repro.tsdb.query import align_to_grid

metric_names = st.sampled_from(["cpu", "disk", "runtime", "latency"])
tag_values = st.sampled_from(["h1", "h2", "h3"])
values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def stores(draw):
    store = TimeSeriesStore()
    n_series = draw(st.integers(1, 5))
    for i in range(n_series):
        name = draw(metric_names)
        host = draw(tag_values)
        sid = SeriesId.make(name, {"host": host, "idx": str(i)})
        n_points = draw(st.integers(1, 15))
        vals = [draw(values) for _ in range(n_points)]
        store.insert_array(sid, range(n_points), vals)
    return store


class TestStoreProperties:
    @given(stores())
    @settings(max_examples=30, deadline=None)
    def test_persist_round_trip_identity(self, store):
        restored = loads_store(dumps_store(store))
        assert restored.series_ids() == store.series_ids()
        for sid in store.series_ids():
            _, original = store.arrays(sid)
            _, loaded = restored.arrays(sid)
            assert np.allclose(original, loaded, rtol=0, atol=0)

    @given(stores())
    @settings(max_examples=30, deadline=None)
    def test_find_partition_by_name(self, store):
        """Every series is found by exactly its own name filter."""
        total = 0
        for name in store.metric_names():
            total += len(store.find(name=name))
        assert total == len(store)

    @given(stores(), st.integers(0, 10), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_time_clip_is_subset(self, store, start, width):
        for sid in store.series_ids():
            ts_all, _ = store.arrays(sid)
            ts_clip, _ = store.arrays(sid, start=start, end=start + width)
            assert set(ts_clip.tolist()) <= set(ts_all.tolist())
            assert all(start <= t < start + width
                       for t in ts_clip.tolist())


class TestAlignmentProperties:
    @given(st.lists(values, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_alignment_uses_only_observed_values(self, vals):
        ts = np.arange(0, 3 * len(vals), 3)
        arr = np.asarray(vals)
        grid = np.arange(3 * len(vals))
        aligned = align_to_grid(ts, arr, grid)
        observed = set(arr.tolist())
        assert set(aligned.tolist()) <= observed

    @given(st.lists(values, min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_alignment_exact_at_observations(self, vals):
        ts = np.arange(len(vals))
        arr = np.asarray(vals)
        aligned = align_to_grid(ts, arr, ts)
        assert np.array_equal(aligned, arr)


def _general_align(timestamps, values, grid):
    """``align_to_grid``'s nearest-neighbour path, with no on-grid shortcut."""
    right = np.clip(np.searchsorted(timestamps, grid, side="left"),
                    0, timestamps.size - 1)
    left = np.clip(right - 1, 0, timestamps.size - 1)
    take_left = (np.abs(grid - timestamps[left])
                 <= np.abs(timestamps[right] - grid))
    return values[np.where(take_left, left, right)].astype(np.float64)


class TestOnGridFastPath:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=25),
           st.integers(1, 4), st.integers(-50, 50),
           st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_equals_the_general_path_bitwise(self, steps, interval, start,
                                             before, after):
        """On-grid, gapped (step > 1), duplicate-timestamp (step 0) and
        ``interval > 1`` inputs all align exactly as the general path,
        also on grids reaching ``before``/``after`` points past the data
        (a run of grid points that starts late or stops early)."""
        ts = start + np.cumsum(steps, dtype=np.int64)
        vals = np.random.default_rng(len(steps)).standard_normal(ts.size)
        # Grids are strictly increasing; ``unique`` is the on-grid case.
        for grid in (np.arange(ts[0], ts[-1] + 1, interval, dtype=np.int64),
                     np.unique(ts),
                     np.arange(ts[0] - before * interval,
                               ts[-1] + after * interval + 1, interval,
                               dtype=np.int64)):
            got = align_to_grid(ts, vals, grid)
            assert got.tobytes() == _general_align(ts, vals, grid).tobytes()

    def test_a_run_inside_a_wider_grid_takes_edge_values(self):
        ts = np.arange(5, 9, dtype=np.int64)
        vals = np.array([1.0, 2.0, np.nan, 4.0])
        aligned = align_to_grid(ts, vals, np.arange(12, dtype=np.int64))
        assert aligned.tobytes() == np.array(
            [1.0] * 6 + [2.0, np.nan] + [4.0] * 4).tobytes()

    def test_on_grid_result_is_a_fresh_copy(self):
        ts = np.arange(10, 30, dtype=np.int64)
        vals = np.linspace(0.0, 1.0, ts.size)
        aligned = align_to_grid(ts, vals, ts.copy())
        assert aligned.tobytes() == vals.tobytes()
        assert not np.shares_memory(aligned, vals)
        as_int = align_to_grid(ts, np.arange(ts.size), ts.copy())
        assert as_int.dtype == np.float64
