"""Unit tests for the columnar time series store."""

import threading

import numpy as np
import pytest

from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.storage import TimeSeriesStore


@pytest.fixture
def store() -> TimeSeriesStore:
    s = TimeSeriesStore()
    for i in range(3):
        sid = SeriesId.make("disk", {"host": f"dn-{i}"})
        s.insert_array(sid, range(10), [float(i)] * 10)
    s.insert_array(SeriesId.make("cpu", {"host": "dn-0"}),
                   range(5), [1.0, 2.0, 3.0, 4.0, 5.0])
    return s


class TestInsert:
    def test_len_counts_series(self, store):
        assert len(store) == 4

    def test_num_points(self, store):
        assert store.num_points() == 35

    def test_out_of_order_rejected(self):
        s = TimeSeriesStore()
        sid = SeriesId.make("m")
        s.insert(sid, 5, 1.0)
        with pytest.raises(SeriesFormatError):
            s.insert(sid, 3, 2.0)

    def test_length_mismatch_rejected(self):
        s = TimeSeriesStore()
        with pytest.raises(SeriesFormatError):
            s.insert_array(SeriesId.make("m"), [1, 2], [1.0])

    def test_contains(self, store):
        assert SeriesId.make("cpu", {"host": "dn-0"}) in store
        assert SeriesId.make("cpu", {"host": "dn-9"}) not in store


class TestIndexes:
    def test_metric_names(self, store):
        assert store.metric_names() == ["cpu", "disk"]

    def test_tag_keys(self, store):
        assert store.tag_keys() == ["host"]

    def test_tag_values(self, store):
        assert store.tag_values("host") == ["dn-0", "dn-1", "dn-2"]

    def test_find_by_exact_name(self, store):
        assert len(store.find(name="disk")) == 3

    def test_find_by_tag(self, store):
        found = store.find(tags={"host": "dn-0"})
        assert len(found) == 2  # cpu + disk

    def test_find_by_name_and_tag(self, store):
        found = store.find(name="disk", tags={"host": "dn-0"})
        assert len(found) == 1

    def test_find_with_glob(self, store):
        assert len(store.find(name="d*")) == 3
        assert len(store.find(tags={"host": "dn-*"})) == 4

    def test_find_no_match(self, store):
        assert store.find(name="nothing") == []


class TestArrays:
    def test_full_range(self, store):
        ts, vals = store.arrays(SeriesId.make("cpu", {"host": "dn-0"}))
        assert ts.tolist() == [0, 1, 2, 3, 4]
        assert vals.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_clipped_range(self, store):
        ts, vals = store.arrays(SeriesId.make("cpu", {"host": "dn-0"}),
                                start=1, end=4)
        assert ts.tolist() == [1, 2, 3]
        assert vals.tolist() == [2.0, 3.0, 4.0]

    def test_unknown_series_raises(self, store):
        with pytest.raises(SeriesFormatError):
            store.arrays(SeriesId.make("nope"))

    def test_time_range(self, store):
        assert store.time_range() == (0, 9)

    def test_time_range_empty_store(self):
        with pytest.raises(SeriesFormatError):
            TimeSeriesStore().time_range()


class TestMutation:
    def test_apply_transform(self, store):
        sid = SeriesId.make("cpu", {"host": "dn-0"})
        store.apply(sid, lambda ts, vals: vals * 2)
        _, vals = store.arrays(sid)
        assert vals.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_apply_length_change_rejected(self, store):
        sid = SeriesId.make("cpu", {"host": "dn-0"})
        with pytest.raises(SeriesFormatError):
            store.apply(sid, lambda ts, vals: vals[:-1])

    def test_merge(self, store):
        other = TimeSeriesStore()
        other.insert_array(SeriesId.make("new_metric"), range(3),
                           [1.0, 2.0, 3.0])
        store.merge(other)
        assert "new_metric" in store.metric_names()

    def test_iter_points_ordered(self, store):
        points = list(store.iter_points(
            [SeriesId.make("cpu", {"host": "dn-0"})]))
        assert [p.timestamp for p in points] == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Read-API parity: one set of read methods, whatever built the store
# ---------------------------------------------------------------------------
def _parity_batches():
    """Bulk batches per series: several chunks, NaNs, a tagless series."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(9):
        tags = {"host": f"h{i % 3}", "dc": "east" if i % 2 else "west"}
        series = SeriesId.make(f"m{i % 4}", tags)
        t0 = 0
        for _ in range(3):
            ts = t0 + np.sort(rng.integers(0, 20, size=40)).astype(np.int64)
            t0 = int(ts[-1]) + 1
            vals = rng.normal(size=40) * (i + 1)
            vals[rng.random(40) < 0.1] = np.nan
            out.append((series, ts, vals))
    out.append((SeriesId.make("runtime"), np.arange(5, dtype=np.int64),
                np.linspace(0.0, 1.0, 5)))
    return out


def _fed(store, batches):
    for series, ts, vals in batches:
        store.insert_array(series, ts, vals)
    return store


def _build(kind, tmp_path):
    """``(reader, expected version)`` for one way of building the store."""
    from repro.tsdb.chunkfile import read_chunkfile, write_chunkfile
    batches = _parity_batches()
    n_series = len({s for s, _, _ in batches})
    if kind == "store":
        return _fed(TimeSeriesStore(), batches), len(batches)
    if kind == "threaded":
        # two writers, each owning half the series (so per-series order
        # holds), land in one store in whatever order they interleave
        store = TimeSeriesStore()
        owners = list(dict.fromkeys(s for s, _, _ in batches))
        writers = [threading.Thread(target=_fed, args=(store, [
            b for b in batches if b[0] in owners[k::2]])) for k in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        return store, len(batches)
    if kind == "read_view":
        return _fed(TimeSeriesStore(), batches).read_view(), len(batches)
    if kind == "chunkfile":
        write_chunkfile(_fed(TimeSeriesStore(), batches), tmp_path / "c")
        return read_chunkfile(tmp_path / "c"), n_series
    wal = tmp_path / "store.wal"
    if kind == "wal":
        _fed(TimeSeriesStore.open(wal), batches).close()
        return TimeSeriesStore.open(wal), len(batches)
    assert kind == "snapshot+wal"
    head, tail = batches[:len(batches) // 2], batches[len(batches) // 2:]
    store = _fed(TimeSeriesStore.open(wal), head)
    store.checkpoint(tmp_path / "snap")
    _fed(store, tail).close()
    recovered = TimeSeriesStore.open(wal, snapshot=tmp_path / "snap")
    return recovered, len({s for s, _, _ in head}) + len(tail)


def _bits(arrays):
    return tuple(a.tobytes() for a in arrays)


def _read_everything(store):
    """Every read method's answer, floats as bytes (NaN/-0.0 exact)."""
    ids = store.series_ids()
    probe = SeriesId.make("m1", {"host": "h1", "dc": "east"})
    return {
        "len": len(store),
        "contains": (probe in store, SeriesId.make("nope") in store),
        "num_points": store.num_points(),
        "series_ids": ids,
        "metric_names": store.metric_names(),
        "tag_keys": store.tag_keys(),
        "tag_values": [store.tag_values(k) for k in ("host", "dc", "x")],
        "time_range": store.time_range(),
        "value_range": store.value_range(),
        "find": (store.find(name="m1"), store.find(tags={"host": "h*"}),
                 store.find(name="m*", tags={"dc": "east"})),
        "find_exact": (store.find_exact(name="m2"),
                       store.find_exact(tags={"dc": "west"}),
                       store.find_exact()),
        "get": [_bits(store.get(s).arrays()) for s in ids],
        "arrays": [_bits(store.arrays(s, 10, 50)) for s in ids],
        "iter_arrays": [(s, _bits((t, v)))
                        for s, t, v in store.iter_arrays(start=3)],
        "iter_points": [(p.series, p.timestamp, np.float64(p.value).tobytes())
                        for p in store.iter_points(ids[:2])],
        "chunk_stats": [store.chunk_stats(s) for s in ids],
    }


PARITY_KINDS = ["store", "threaded", "read_view", "chunkfile", "wal",
                "snapshot+wal"]


class TestReadApiParity:
    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_every_read_is_bitwise_equal(self, kind, tmp_path):
        reference, _ = _build("store", tmp_path / "ref")
        store, _ = _build(kind, tmp_path)
        got, want = _read_everything(store), _read_everything(reference)
        for method in want:
            assert got[method] == want[method], method

    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_version_counts_mutations_as_before(self, kind, tmp_path):
        store, expected = _build(kind, tmp_path)
        assert store.version == expected
        assert store.read_view().version == expected

    def test_store_view_has_no_mutators(self):
        from repro.tsdb.storage import StoreView
        store = _fed(TimeSeriesStore(), _parity_batches())
        view = store.read_view()
        assert type(view) is StoreView
        assert view.read_view() is view and view.snapshot() is view
        public = {name for name in dir(StoreView) if not name.startswith("_")}
        assert public == {
            "arrays", "chunk_stats", "derived", "derived_before", "find",
            "find_exact", "get",
            "get_many", "iter_arrays", "iter_points", "metric_names",
            "num_points", "read_view", "series_ids", "series_token",
            "snapshot",
            "tag_keys", "tag_values", "time_range", "value_range",
            "version", "written_since"}
        assert "__len__" in vars(StoreView)
        assert "__contains__" in vars(StoreView)

    def test_reads_never_reshape_the_store(self):
        """Zone-map layout after per-point inserts interleaved with reads
        equals the layout with no reads: only writes decide it."""
        series = [SeriesId.make("m", {"h": f"s{i}"}) for i in range(5)]
        quiet = TimeSeriesStore()
        busy = TimeSeriesStore()
        for r in range(300):
            for s in series:
                quiet.insert(s, r, float(r % 7))
                busy.insert(s, r, float(r % 7))
            busy.arrays(series[0])
            busy.chunk_stats(series[1])
        for s in series:
            assert busy.chunk_stats(s) == quiet.chunk_stats(s)
            assert _bits(busy.arrays(s)) == _bits(quiet.arrays(s))
        assert len(quiet.chunk_stats(series[4])) == 1

    def test_point_ingest_equals_bulk_ingest(self):
        """Per-point ``insert`` and one ``insert_array`` per series hold
        the same points, byte for byte."""
        points = TimeSeriesStore()
        bulk = TimeSeriesStore()
        for series, ts, vals in _parity_batches():
            for t, v in zip(ts.tolist(), vals.tolist()):
                points.insert(series, t, v)
            bulk.insert_array(series, ts, vals)
        assert points.num_points() == bulk.num_points()
        assert points.series_ids() == bulk.series_ids()
        for series in bulk.series_ids():
            assert _bits(points.arrays(series)) == _bits(bulk.arrays(series))

    def test_dropped_store_leaves_no_cyclic_garbage(self, tmp_path):
        """Reference counting alone frees a store, its views and their
        frozen columns, so a recovered store's memmap'd chunkfile is
        unmapped when the store goes, not at some later GC pass."""
        import gc
        store, _ = _build("snapshot+wal", tmp_path)
        gc.collect()
        gc.disable()
        try:
            for series in store.series_ids():
                store.arrays(series)
                store.get(series).freeze().freeze()
            store.insert(SeriesId.make("late"), 1, 1.0)
            store.read_view().chunk_stats(SeriesId.make("late"))
            store.close()
            del store
            assert gc.collect() == 0
        finally:
            gc.enable()
