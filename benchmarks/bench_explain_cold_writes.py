"""``explain-cold-wide`` with writes that leave nothing to reuse.

The end-to-end ``explain-cold-wide`` workload writes its heartbeat from
t=0 up, inside the store's 1440-sample horizon, so until the heartbeat
passes the horizon every write leaves the time grid in place and the
server reuses every family and score the write did not touch.  This
script drives the same store, server and request with one of two
writers after which an explain must rebuild or rescore everything:

- ``append-now`` lands each heartbeat one sample *beyond* the horizon —
  the pattern of a store ingesting live data — so every write moves the
  grid and every family is rebuilt and every hypothesis rescored;
- ``rewrite-target`` rewrites one target series in place (``apply``),
  so the grid stays but Y changes and every hypothesis is rescored.

Run from the repository root::

    python3 benchmarks/bench_explain_cold_writes.py {append-now,rewrite-target} SEED OPS

The last stdout line is JSON: timed ops, failed checks (every planted
cause in the top planted-count + 2) and the median and quartiles of the
per-op explain latency in ms.  Five untimed ops run first.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import harness  # noqa: E402

harness.pin_threads(2)            # before numpy is first imported
sys.path.insert(0, str(harness.REPO / "src"))

import numpy as np  # noqa: E402

import sizes  # noqa: E402
import wl_explain  # noqa: E402
from repro.tsdb.model import SeriesId  # noqa: E402

WARMUP_OPS = 5
WRITERS = ("append-now", "rewrite-target")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    writer, seed, n_ops = argv[0], int(argv[1]), int(argv[2])
    if writer not in WRITERS:
        raise SystemExit(f"writer must be one of {WRITERS}, got {writer!r}")
    size = sizes.FULL["explain-cold-wide"]
    state = wl_explain.setup(seed, size, None)
    horizon = size["samples"]
    target = SeriesId.make(wl_explain.TARGET, {"host": "h0"})
    times, failed = [], 0
    try:
        for k in range(WARMUP_OPS + n_ops):
            if writer == "append-now":
                state.store.insert_array(
                    wl_explain.HEARTBEAT,
                    np.asarray([horizon + k], dtype=np.int64),
                    np.asarray([state.heartbeat[k % horizon]]))
            else:
                shift = 1e-3 if k % 2 == 0 else -1e-3
                state.store.apply(target, lambda ts, vs: vs + shift)
            start = time.perf_counter()
            table = state.server.explain(wl_explain.TARGET)
            elapsed = time.perf_counter() - start
            if k >= WARMUP_OPS:
                times.append(1000.0 * elapsed)
                failed += not state.check(table)
    finally:
        wl_explain.teardown(state)
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(json.dumps({"writer": writer, "seed": seed, "ops": len(times),
                      "failed": failed, "median_ms": q2, "q1_ms": q1,
                      "q3_ms": q3}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
