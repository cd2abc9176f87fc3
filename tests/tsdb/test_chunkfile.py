"""Binary chunkfile format: byte-exact round trips with zero parsing.

The text snapshot is the compatibility oracle: whatever it round-trips,
the binary path must round-trip byte-identically — while loading
through memmap views (no copy) and the persisted zone columns (no
statistics recomputation).  Files of the older layout, whose directory
carries each series' zone maps as JSON ``segments``, are built here by
hand (:func:`_write_old_layout`) and must still load.
"""

import json
import struct

import numpy as np
import pytest

import repro.tsdb.model as model_module
from repro.tsdb.chunkfile import (
    MAGIC,
    deserialize_segments,
    read_chunkfile,
    write_chunkfile,
)
from repro.tsdb.model import SeriesFormatError, SeriesId
from repro.tsdb.persist import read_store, save_store
from repro.tsdb.storage import TimeSeriesStore


def _adversarial_store() -> TimeSeriesStore:
    """Every float edge the format must preserve bit-for-bit."""
    store = TimeSeriesStore()
    store.insert_array(
        SeriesId.make("edge.values", {"host": "h1"}),
        np.arange(8, dtype=np.int64),
        np.asarray([0.0, -0.0, np.nan, np.inf, -np.inf,
                    1e308, 5e-324, -1.5]))
    store.insert_array(
        SeriesId.make("all.nan"), [1, 2], [np.nan, np.nan])
    store.insert_array(
        SeriesId.make("unicode.tags", {"região": "São-Paulo"}),
        [10], [3.25])
    # A multi-chunk series: point appends sealed at buffer boundaries
    # plus one bulk chunk, so several zone-map segments persist.
    series = SeriesId.make("multi.chunk", {"host": "h2"})
    for t in range(10):
        store.insert(series, t, float(t) / 3.0)
    store.insert_array(series, np.arange(10, 30, dtype=np.int64),
                       np.linspace(-4.0, 4.0, 20))
    return store


def _assert_bitwise_equal_stores(a, b):
    assert a.series_ids() == b.series_ids()
    for series in a.series_ids():
        a_ts, a_vals = a.arrays(series)
        b_ts, b_vals = b.arrays(series)
        assert a_ts.tobytes() == b_ts.tobytes()
        assert a_vals.tobytes() == b_vals.tobytes()


class TestRoundTrip:
    def test_byte_identical_columns_and_metadata(self, tmp_path):
        store = _adversarial_store()
        path = tmp_path / "snap.tsdb"
        written = write_chunkfile(store, path)
        assert written == path.stat().st_size
        loaded = read_chunkfile(path)
        _assert_bitwise_equal_stores(store, loaded)
        assert loaded.metric_names() == store.metric_names()
        assert loaded.tag_keys() == store.tag_keys()
        assert loaded.time_range() == store.time_range()
        assert loaded.value_range() == store.value_range()
        assert loaded.version > 0

    def test_zone_maps_survive_without_recomputation(self, tmp_path,
                                                     monkeypatch):
        store = _adversarial_store()
        expected = {s: store.chunk_stats(s) for s in store.series_ids()}
        path = tmp_path / "snap.tsdb"
        write_chunkfile(store, path)

        def _fail(*args, **kwargs):      # pragma: no cover
            raise AssertionError("zone maps must load, not recompute")

        monkeypatch.setattr(model_module, "_value_range", _fail)
        loaded = read_chunkfile(path)
        for series, segments in expected.items():
            assert loaded.chunk_stats(series) == segments
            for got, want in zip(loaded.get(series).zone_columns(),
                                 store.get(series).zone_columns()):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_loaded_columns_are_readonly_memmap_views(self, tmp_path):
        path = tmp_path / "snap.tsdb"
        write_chunkfile(_adversarial_store(), path)
        loaded = read_chunkfile(path)
        for series in loaded.series_ids():
            ts, vals = loaded.arrays(series)
            assert not ts.flags.writeable
            assert not vals.flags.writeable
            # Views of the shared file map, not copies.
            assert not ts.flags.owndata and not vals.flags.owndata

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        """A vectored write that stops early (a full disk, a signal) is
        completed buffer by buffer, so the file is still whole."""
        import os

        def short_writev(fd, buffers):
            return os.write(fd, b"".join(bytes(b) for b in buffers)[:37])

        store = _adversarial_store()
        path = tmp_path / "snap.tsdb"
        monkeypatch.setattr(os, "writev", short_writev)
        written = write_chunkfile(store, path)
        monkeypatch.undo()
        assert written == path.stat().st_size
        _assert_bitwise_equal_stores(store, read_chunkfile(path))

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.tsdb"
        write_chunkfile(TimeSeriesStore(), path)
        loaded = read_chunkfile(path)
        assert len(loaded) == 0 and loaded.num_points() == 0

    def test_live_store_writes_consistent_cut(self, tmp_path):
        store = TimeSeriesStore()
        for i in range(6):
            store.insert_array(
                SeriesId.make("cpu", {"host": f"h{i}"}),
                np.arange(100, dtype=np.int64),
                np.sin(np.arange(100) / (i + 1.0)))
        path = tmp_path / "live.tsdb"
        write_chunkfile(store, path)
        _assert_bitwise_equal_stores(store.snapshot(),
                                     read_chunkfile(path))


def _segments_json(segments) -> list[dict]:
    """Zone maps as the older layout's JSON ``segments``."""
    return [{"start": seg.start, "end": seg.end,
             "timestamps": {"min": seg.timestamps.min,
                            "max": seg.timestamps.max},
             "values": {"min": seg.values.min, "max": seg.values.max}}
            for seg in segments]


def _write_old_layout(store, path, extra_fields=None) -> None:
    """A chunkfile of the older layout: per series its consolidated
    columns, and a directory whose entries carry JSON ``segments``
    (each column range updated with ``extra_fields``) and no zone
    section."""
    blobs, entries = [], []
    offset = len(MAGIC) + 16
    for series in store.series_ids():
        ts, vals = store.arrays(series)
        segments = _segments_json(store.chunk_stats(series))
        for seg in segments:
            seg["timestamps"].update(extra_fields or {})
            seg["values"].update(extra_fields or {})
        entries.append({"name": series.name,
                        "tags": [list(pair) for pair in series.tags],
                        "count": int(ts.size), "ts_offset": offset,
                        "vals_offset": offset + 8 * int(ts.size),
                        "segments": segments})
        blobs += [ts.astype("<i8").tobytes(), vals.astype("<f8").tobytes()]
        offset += 16 * int(ts.size)
    payload = json.dumps({"series": entries},
                         separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<QQ", offset, len(payload))
                     + b"".join(blobs) + payload)


class TestSegmentCodec:
    def test_segments_round_trip_exactly(self):
        store = _adversarial_store()
        for series in store.series_ids():
            segments = list(store.chunk_stats(series))
            assert deserialize_segments(
                json.loads(json.dumps(_segments_json(segments)))) == segments


def _directory(path) -> tuple[bytes, int, dict]:
    """A chunkfile's bytes, directory offset and parsed directory."""
    data = path.read_bytes()
    offset, length = struct.unpack("<QQ", data[len(MAGIC):len(MAGIC) + 16])
    return data, offset, json.loads(data[offset:offset + length])


def _rewrite_directory(path, data: bytes, offset: int, meta: dict) -> None:
    payload = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<QQ", offset, len(payload))
                     + data[len(MAGIC) + 16:offset] + payload)


class TestZoneMapFields:
    def test_directory_records_ranges_only(self, tmp_path):
        """The directory keeps per-series offsets and counts; zone maps
        live in the blob area, never as JSON."""
        path = tmp_path / "snap.tsdb"
        store = _adversarial_store()
        write_chunkfile(store, path)
        _, offset, meta = _directory(path)
        assert all(set(entry) == {"name", "tags", "count", "ts_offset",
                                  "vals_offset", "zones_offset", "zones"}
                   for entry in meta["series"])
        assert [entry["zones"] for entry in meta["series"]] == [
            len(store.chunk_stats(s)) for s in store.series_ids()]
        last = max(meta["series"], key=lambda entry: entry["zones_offset"])
        assert last["zones_offset"] + 48 * last["zones"] == offset

    def test_old_layout_still_loads(self, tmp_path):
        store = _adversarial_store()
        path = tmp_path / "old.tsdb"
        _write_old_layout(store, path)
        loaded = read_chunkfile(path)
        _assert_bitwise_equal_stores(store, loaded)
        for series in store.series_ids():
            assert loaded.chunk_stats(series) == store.chunk_stats(series)

    def test_directory_with_estimator_fields_still_loads(self, tmp_path):
        """Chunkfiles whose zone maps also carry ``null_count`` and
        ``distinct`` load to the same store and the same zone maps."""
        store = _adversarial_store()
        path = tmp_path / "old.tsdb"
        _write_old_layout(store, path, {"null_count": 0, "distinct": 1})
        loaded = read_chunkfile(path)
        _assert_bitwise_equal_stores(store, loaded)
        for series in store.series_ids():
            assert loaded.chunk_stats(series) == store.chunk_stats(series)

    def test_old_layout_loaded_column_keeps_writing(self, tmp_path):
        """A column adopted from JSON segments appends zone rows."""
        store = _adversarial_store()
        path = tmp_path / "old.tsdb"
        _write_old_layout(store, path)
        loaded = read_chunkfile(path)
        series = SeriesId.make("all.nan")
        loaded.insert_array(series, [3, 4], [-0.0, 2.0])
        store.insert_array(series, [3, 4], [-0.0, 2.0])
        assert loaded.chunk_stats(series) == store.chunk_stats(series)


class TestFormatErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tsdb"
        path.write_bytes(b"x" * 64)
        with pytest.raises(SeriesFormatError, match="bad magic"):
            read_chunkfile(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "short.tsdb"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(SeriesFormatError, match="too short"):
            read_chunkfile(path)

    @pytest.mark.parametrize("field, value", [
        ("zones_offset", 8), ("zones_offset", -48), ("zones", 10 ** 6),
        ("zones", -1)])
    def test_zone_section_out_of_range_rejected(self, tmp_path, field,
                                                value):
        path = tmp_path / "zones.tsdb"
        write_chunkfile(_adversarial_store(), path)
        data, offset, meta = _directory(path)
        meta["series"][-1][field] = value
        _rewrite_directory(path, data, offset, meta)
        with pytest.raises(SeriesFormatError,
                           match="zone maps out of range"):
            read_chunkfile(path)

    def test_zone_section_past_the_directory_rejected(self, tmp_path):
        path = tmp_path / "zones.tsdb"
        write_chunkfile(_adversarial_store(), path)
        data, offset, meta = _directory(path)
        meta["series"][0]["zones_offset"] = offset
        _rewrite_directory(path, data, offset, meta)
        with pytest.raises(SeriesFormatError,
                           match="zone maps out of range"):
            read_chunkfile(path)

    def test_truncated_directory_rejected(self, tmp_path):
        path = tmp_path / "trunc.tsdb"
        write_chunkfile(_adversarial_store(), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SeriesFormatError, match="truncated"):
            read_chunkfile(path)


class TestPersistDispatch:
    def test_save_store_binary_and_sniffing_read(self, tmp_path):
        store = _adversarial_store()
        path = tmp_path / "snap.bin"
        save_store(store, path, format="binary")
        assert path.read_bytes()[:8] == MAGIC
        _assert_bitwise_equal_stores(store, read_store(path))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SeriesFormatError, match="unknown snapshot"):
            save_store(TimeSeriesStore(), tmp_path / "x", format="xml")

    def test_binary_load_equals_text_oracle(self, tmp_path):
        """The compatibility contract: both formats reload to stores
        with identical series and identical column bytes."""
        store = TimeSeriesStore()
        rng = np.random.default_rng(3)
        for i in range(5):
            store.insert_array(
                SeriesId.make("flow.bytecount",
                              {"src": f"dn-{i}", "dest": "nn"}),
                np.arange(200, dtype=np.int64),
                rng.normal(size=200))
        text_path = tmp_path / "snap.txt"
        bin_path = tmp_path / "snap.bin"
        save_store(store, text_path, format="text")
        save_store(store, bin_path, format="binary")
        from_text = read_store(text_path)
        from_binary = read_store(bin_path)
        _assert_bitwise_equal_stores(from_text, from_binary)
        _assert_bitwise_equal_stores(store, from_binary)
