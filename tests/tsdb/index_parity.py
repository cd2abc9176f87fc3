"""The ``tsdb`` index a view builds from every column, and field-for-field
equality with it: what a patched index (``adapter._patched_index``)
must equal."""

from unittest import mock

import numpy as np

from repro.tsdb import adapter
from repro.tsdb.storage import StoreView


def cold_index(view):
    """``view``'s index built from every column, whatever is kept."""
    with mock.patch.object(StoreView, "derived_before",
                           lambda self, build: None):
        return adapter._build_index(view)


def _bytes(array):
    return np.ascontiguousarray(array).tobytes()


def assert_index_equal(got, want):
    """Columns bitwise, dictionaries, per-series codes, positions and
    timestamps, zone columns, and the concatenated positions."""
    got_columns = got.table.column_vectors()
    want_columns = want.table.column_vectors()
    assert got.table.columns == want.table.columns
    for k in (0, 3):
        assert got_columns[k].dtype == want_columns[k].dtype
        assert _bytes(got_columns[k]) == _bytes(want_columns[k])
    for k in (1, 2):
        assert got_columns[k].codes.dtype == want_columns[k].codes.dtype
        assert _bytes(got_columns[k].codes) == _bytes(want_columns[k].codes)
        assert got_columns[k].values.tolist() == \
            want_columns[k].values.tolist()
    assert got.timestamps.dtype == want.timestamps.dtype
    assert _bytes(got.timestamps) == _bytes(want.timestamps)
    assert list(got.series) == list(want.series)
    for series, (code, ts) in want.series.items():
        got_code, got_ts = got.series[series]
        assert got_code == code
        assert _bytes(got_ts) == _bytes(ts)
        assert _bytes(got.rows(code, ts)) == _bytes(want.rows(code, ts))
    assert len(got.zones) == len(want.zones)
    for got_zone, want_zone in zip(got.zones, want.zones):
        assert got_zone.dtype == want_zone.dtype
        assert _bytes(got_zone) == _bytes(want_zone)
    assert _bytes(got.positions) == _bytes(want.positions)
    assert _bytes(got.ends) == _bytes(want.ends)
