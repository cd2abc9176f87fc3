"""In-memory time series database substrate (OpenTSDB-like).

The paper's deployments ingest per-minute observations tagged with key-value
attributes (``flow{src=datanode-1, dest=datanode-2}`` etc.) into OpenTSDB or
Druid.  This package provides the equivalent substrate for the reproduction:

- :mod:`repro.tsdb.model` — the data model: :class:`~repro.tsdb.model.SeriesId`
  (metric name + tag map), :class:`~repro.tsdb.model.DataPoint`, and the
  chunked-numpy :class:`~repro.tsdb.model.SeriesData` columns (append
  buffer + sealed int64/float64 chunks + cached consolidated view).
- :mod:`repro.tsdb.storage` — :class:`~repro.tsdb.storage.TimeSeriesStore`,
  the one mutable store: columnar columns with inverted indexes on
  metric names and tags, one lock for every write, a monotonic
  mutation ``version`` that derived caches key on, and an optional WAL
  with checkpoints; and :class:`~repro.tsdb.storage.StoreView`, the
  frozen per-version view every read goes through.
- :mod:`repro.tsdb.query` — series scans and grid alignment.
- :mod:`repro.tsdb.ingest` — a line-protocol parser for bulk loading.
- :mod:`repro.tsdb.adapter` — exposes the store as the relational ``tsdb``
  table used by the paper's SQL listings (Appendix C), built columnar.
- :mod:`repro.tsdb.wal` — append-only write-ahead log with crash-safe
  replay.
- :mod:`repro.tsdb.chunkfile` — memmap'd binary snapshot format
  (zero-parse load; zone maps survive restart).
"""

from repro.tsdb.model import DataPoint, SeriesId, parse_series_expr
from repro.tsdb.storage import StoreView, TimeSeriesStore
from repro.tsdb.query import ScanQuery
from repro.tsdb.ingest import parse_line, load_lines
from repro.tsdb.adapter import register_store, tsdb_table
from repro.tsdb.wal import WriteAheadLog

__all__ = [
    "DataPoint",
    "SeriesId",
    "parse_series_expr",
    "StoreView",
    "TimeSeriesStore",
    "WriteAheadLog",
    "ScanQuery",
    "parse_line",
    "load_lines",
    "register_store",
    "tsdb_table",
]
