"""Former home of the sharded store, now :class:`repro.tsdb.TimeSeriesStore`.

Kept because ``benchmarks/e2e`` is frozen: it imports the old name from
here and expects its no-argument constructor to build the default
8-shard store.
"""

from repro.tsdb.storage import TimeSeriesStore as ShardedTimeSeriesStore  # noqa: F401
