"""Workload sizes: what runs at full size, and the smoke set.

The driver's time cap (4 + 22 x 4 runs inside 3420 s, so about 37 s a
run including set-up) forces every measured phase down from the issue's
30-45 s to ``run_seconds`` = 15 s.  Data sizes shrink by one factor,
0.3, on the three closed-loop workloads, so that a 15 s window still
holds 30 or more operations (and more than 256 distinct statements on
``sql-cold-mix``, so the result cache evicts); ``dashboard-ingest``
keeps its data size (its operation count is set by the request rates,
not by the data) and shrinks only its rung lengths, which ``--seconds``
scales.  The README lists the issue's sizes beside these.
"""

from __future__ import annotations

FULL = {
    "explain-cold-wide": dict(families=150, hosts=4, samples=1440,
                              cause_every=50, warmup_ops=2, min_ops=5),
    # 27 + 2 warm-up passes = 290 distinct statements > cache_entries=256,
    # so LRU eviction runs however slow the machine is that minute.
    "sql-cold-mix": dict(scale=6, batch=288, warmup_passes=2, min_passes=27),
    "dashboard-ingest": dict(scale=4, batch=288, rates=(25, 50, 100),
                             shares=(0.2, 0.6, 0.2), min_rung_requests=10,
                             write_hz=2.0, write_batch=16, limit_ms=400.0,
                             replay_samples=5),
    "ingest-recover": dict(writers=2, series_per_writer=20, points=600_000,
                           tail=60_000, batch=512, min_cycles=3),
    "setup_repeats": 5,
}

#: ``--smoke``: operation counts are fixed (``--seconds 0``), so every
#: count repeats exactly, and the four workloads together take seconds.
SMOKE = {
    "explain-cold-wide": dict(families=50, hosts=2, samples=240,
                              cause_every=25, warmup_ops=1, min_ops=3),
    "sql-cold-mix": dict(scale=1, batch=96, warmup_passes=1, min_passes=2),
    "dashboard-ingest": dict(scale=1, batch=96, rates=(25, 50, 100),
                             shares=(0.2, 0.6, 0.2), min_rung_requests=10,
                             write_hz=20.0, write_batch=4, limit_ms=400.0,
                             replay_samples=2),
    "ingest-recover": dict(writers=2, series_per_writer=4, points=40_000,
                           tail=4_000, batch=512, min_cycles=2),
    "setup_repeats": 1,
}
