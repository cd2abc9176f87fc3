"""Former home of the sharded store, now :class:`repro.tsdb.TimeSeriesStore`.

Kept because ``benchmarks/e2e`` is frozen: it imports the old name from
here and builds the store with no arguments or with ``open(wal)``.
"""

from repro.tsdb.storage import TimeSeriesStore as ShardedTimeSeriesStore  # noqa: F401
