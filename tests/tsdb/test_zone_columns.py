"""Zone maps as columns: every write sequence against the per-chunk oracle.

A model of the store's chunking predicts each series' logical chunk
boundaries: a bulk write seals the append buffer and then is its own
chunk, point appends seal every ``CHUNK_TARGET`` points, ``apply``
seals the buffer, and a frozen view seals the buffered tail it saw as
one chunk of its own.  Every view, taken at any point of a sequence,
must report exactly the oracle's zone map (``zone_oracle.chunk_stats``)
for each predicted chunk — also after the store has written on — and a
checkpoint reopened with ``open(wal, snapshot=)`` must hand back the
zone columns bit for bit.
"""

import math
import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.tsdb.model import CHUNK_TARGET, SMALL_WRITE, SeriesId
from repro.tsdb.storage import TimeSeriesStore
from tests.tsdb.zone_oracle import chunk_stats, value_range_walk

SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25])


def _values(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "all-nan":
        return np.full(n, np.nan)
    if kind == "special":
        return rng.choice(SPECIAL, n)
    return rng.standard_normal(n)


write_ops = st.one_of(
    st.tuples(st.just("bulk"),
              st.sampled_from([1, 2, SMALL_WRITE - 1, SMALL_WRITE,
                               SMALL_WRITE + 37]),
              st.sampled_from(["normal", "special", "all-nan"])),
    st.tuples(st.just("points"),
              st.sampled_from([1, 3, CHUNK_TARGET - 1, CHUNK_TARGET + 2]),
              st.sampled_from(["normal", "special", "all-nan"])),
    st.tuples(st.just("apply"), st.just(0), st.just("")),
    # A view frozen and read at once seals its tail before the store
    # writes on; one frozen but read only at the end seals it after.
    st.tuples(st.just("freeze"), st.just(0),
              st.sampled_from(["read now", "read later"])),
)


class _Model:
    """The expected columns and logical chunk boundaries of one series."""

    def __init__(self) -> None:
        self.ts = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0)
        self.sealed: list[tuple[int, int]] = []
        self.buffer_start = 0

    def _seal_buffer(self) -> None:
        if self.buffer_start < self.ts.size:
            self.sealed.append((self.buffer_start, self.ts.size))
            self.buffer_start = self.ts.size

    def bulk(self, ts, vals) -> None:
        self._seal_buffer()
        self.sealed.append((self.ts.size, self.ts.size + ts.size))
        self.ts = np.concatenate((self.ts, ts))
        self.vals = np.concatenate((self.vals, vals))
        self.buffer_start = self.ts.size

    def point(self, t, v) -> None:
        self.ts = np.append(self.ts, t)
        self.vals = np.append(self.vals, v)
        if self.ts.size - self.buffer_start >= CHUNK_TARGET:
            self._seal_buffer()

    def apply(self) -> None:
        self._seal_buffer()
        self.vals = self.vals * -1.0          # 0.0 <-> -0.0 as well

    def expected(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Columns and zone maps a view frozen now must report."""
        bounds = list(self.sealed)
        if self.buffer_start < self.ts.size:
            bounds.append((self.buffer_start, self.ts.size))
        return self.ts, self.vals, [
            chunk_stats(lo, self.ts[lo:hi], self.vals[lo:hi])
            for lo, hi in bounds]


def _run(store, ops, seed):
    """Apply ``(op, series index)`` pairs over two series; returns each
    frozen view with the models' expectations at the time it was
    taken."""
    rng = np.random.default_rng(seed)
    series = [SeriesId.make("zone", {"s": str(i)}) for i in range(2)]
    models = {sid: _Model() for sid in series}
    frozen = []
    for (op, n, kind), which in ops:
        sid = series[which]
        model = models[sid]
        last = int(model.ts[-1]) if model.ts.size else 0
        ts = last + np.cumsum(rng.integers(0, 3, n))   # repeats allowed
        vals = _values(kind, n, rng)
        if op == "bulk":
            store.insert_array(sid, ts, vals)
            model.bulk(ts, vals)
        elif op == "points":
            for t, v in zip(ts.tolist(), vals.tolist()):
                store.insert(sid, t, v)
                model.point(t, v)
        elif op == "apply" and model.ts.size:
            store.apply(sid, lambda _, v: v * -1.0)
            model.apply()
        elif op == "freeze":
            frozen.append((store.read_view(),
                           {s: m.expected() for s, m in models.items()
                            if m.ts.size}))
            if kind == "read now":
                _assert_view(*frozen[-1])
    frozen.append((store.read_view(),
                   {s: m.expected() for s, m in models.items()
                    if m.ts.size}))
    return frozen


def _assert_view(view, expected) -> None:
    assert sorted(view.series_ids(), key=str) == sorted(expected, key=str)
    for sid, (ts, vals, zones) in expected.items():
        got_ts, got_vals = view.arrays(sid)
        assert got_ts.tobytes() == ts.tobytes()
        assert got_vals.tobytes() == vals.tobytes()
        assert list(view.chunk_stats(sid)) == zones
        ints, floats = view.get(sid).zone_columns()
        assert ints.dtype == np.int64 and floats.dtype == np.float64
        assert ints.shape == (len(zones), 4)
        assert floats.shape == (len(zones), 2)


class TestZoneColumnsMatchOracle:
    @given(st.lists(st.tuples(write_ops, st.integers(0, 1)), min_size=1,
                    max_size=10),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_view_matches_the_oracle(self, ops, seed):
        """Views taken mid-sequence keep reporting what they saw while
        the store writes on (the zone columns are shared, not copied)."""
        frozen = _run(TimeSeriesStore(), ops, seed)
        for view, expected in frozen:
            _assert_view(view, expected)

    @given(st.lists(st.tuples(write_ops, st.integers(0, 1)), min_size=1,
                    max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_checkpoint_reopen_returns_zone_columns_bitwise(self, ops,
                                                            seed):
        with tempfile.TemporaryDirectory() as tmp:
            wal, snapshot = Path(tmp) / "wal.log", Path(tmp) / "snap.bin"
            store = TimeSeriesStore.open(wal)
            (view, expected), = _run(store, ops, seed)[-1:]
            store.checkpoint(snapshot)
            want = {sid: view.get(sid).zone_columns() for sid in expected}
            store.close()
            reopened = TimeSeriesStore.open(wal, snapshot=snapshot)
            try:
                _assert_view(reopened, expected)
                for sid, columns in want.items():
                    for got, col in zip(reopened.get(sid).zone_columns(),
                                        columns):
                        assert got.tobytes() == col.tobytes()
                    # An adopted column keeps writing zone rows.
                    reopened.insert_array(sid, [10 ** 9], [-0.0])
                    assert reopened.chunk_stats(sid)[-1] == chunk_stats(
                        len(expected[sid][0]), np.array([10 ** 9]),
                        np.array([-0.0]))
            finally:
                reopened.close()


class TestConcurrentViews:
    def test_views_keep_their_zone_columns_under_concurrent_writes(self):
        """Writers append points and bulk chunks while readers freeze
        views and read them (racing each other to seal a view's tail):
        every view's zone columns stay what it first returned, tile its
        points and match the oracle, although clones share them with
        the columns still being written."""
        store = TimeSeriesStore()
        series = [SeriesId.make("stress", {"s": str(i)}) for i in range(4)]
        errors, seen = [], []
        done = threading.Event()

        def writer(k):
            rng = np.random.default_rng(k)
            t = 0
            try:
                for r in range(400):
                    n = int(rng.integers(1, 300)) if r % 25 == 0 else 1
                    ts = np.arange(t, t + n)
                    vals = rng.choice(SPECIAL, n)
                    if n == 1:
                        store.insert(series[k], t, float(vals[0]))
                    else:
                        store.insert_array(series[k], ts, vals)
                    t += n
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(150):
                    if done.is_set():
                        return
                    view = store.read_view()
                    seen.append((view, {
                        sid: tuple(c.tobytes()
                                   for c in view.get(sid).zone_columns())
                        for sid in view.series_ids()}))
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(len(series))]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:len(series)]:
                thread.join(timeout=60)
            done.set()
            for thread in threads[len(series):]:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert seen, "readers froze no view"
        for view, zones in seen:
            for sid, (int_bytes, float_bytes) in zones.items():
                ints, floats = view.get(sid).zone_columns()
                assert ints.tobytes() == int_bytes
                assert floats.tobytes() == float_bytes
                ts, vals = view.arrays(sid)
                bounds = ints[:, :2].tolist()
                assert bounds[0][0] == 0 and bounds[-1][1] == ts.size
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
                assert list(view.chunk_stats(sid)) == [
                    chunk_stats(lo, ts[lo:hi], vals[lo:hi])
                    for lo, hi in bounds]


def _bits(pair):
    return None if pair is None else tuple(
        np.float64(x).tobytes() for x in pair)


class TestValueRange:
    """``value_range`` from the zone columns equals the per-chunk walk
    bit for bit, down to which of ``0.0`` / ``-0.0`` it returns."""

    def _store(self, *chunks):
        store = TimeSeriesStore()
        for i, (name, values) in enumerate(chunks):
            store.insert_array(SeriesId.make(name), [i] * len(values), values)
        return store

    def test_empty_store(self):
        store = TimeSeriesStore()
        assert store.value_range() is None is value_range_walk(store)

    def test_all_nan(self):
        store = self._store(("a", [np.nan, np.nan]), ("b", [np.nan]))
        assert store.value_range() is None is value_range_walk(store)

    def test_infinities(self):
        store = self._store(("a", [np.nan, np.inf]), ("b", [-np.inf, 1.0]))
        assert store.value_range() == (-math.inf, math.inf)
        assert _bits(store.value_range()) == _bits(value_range_walk(store))

    def test_signed_zeros_first_chunk_wins(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            store = self._store(("a", [first]), ("a", [np.nan]),
                                ("a", [second]))
            assert _bits(store.value_range()) == _bits((first, first))
            store = self._store(("a", [first]), ("b", [second]),
                                ("a", [second, np.nan]))
            assert _bits(store.value_range()) \
                == _bits(value_range_walk(store))

    @given(st.lists(st.lists(st.sampled_from(list(SPECIAL)), min_size=1,
                             max_size=4), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_walk(self, chunks):
        store = self._store(*((f"s{i % 3}", c) for i, c in
                              enumerate(chunks)))
        assert _bits(store.value_range()) == _bits(value_range_walk(store))
