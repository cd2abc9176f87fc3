"""Microbench of the columnar GROUP BY kernels, parent against change.

    python3 benchmarks/bench_segmented_kernels.py PARENT_SRC CHANGE_SRC \\
        [ROUNDS]

Each ``SRC`` is a checkout's ``src`` directory (``git archive REV | tar
-x -C DIR`` makes one from a commit).  Every round runs each side in a
fresh process, the parent first on even rounds, and the document printed
on the last stdout line holds medians over the rounds (default 5):

- ``cells`` — microseconds per ``SEGMENTED_AGGREGATES[name](values,
  starts, ends)`` call on float64 columns cut into equal segments, for
  SUM/AVG/VARIANCE and each "groups x rows per group" cell: one long
  group, a few groups, many tiny groups, segments past the per-slice
  cutoff.  ``slower_than_allowed`` is a change slower than the parent by
  more than max(10 %, 5 us).
- ``memory`` — peak RSS (MB) and seconds of one call in a process of its
  own: AVG over 200 000 one-row groups plus one 128-row group, and
  ``MOVING_AVG(value, 1000)`` over 207 360 rows.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

CELLS = [(1, 50), (4, 60), (30, 60), (200, 4), (1700, 8), (1, 5000),
         (9, 55296)]
AGGREGATES = ("SUM", "AVG", "VARIANCE")
MEMORY = ("skewed-groups AVG", "MOVING_AVG window 1000")


def time_cells() -> dict:
    import numpy as np
    from repro.sql.functions import SEGMENTED_AGGREGATES

    rng = np.random.default_rng(0)
    out = {}
    for groups, rows in CELLS:
        values = rng.standard_normal(groups * rows)
        starts = np.arange(groups) * rows
        ends = starts + rows
        reps = max(3, 20000 // (groups * rows // 50 + 10))
        for name in AGGREGATES:
            kernel = SEGMENTED_AGGREGATES[name]
            batches = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(reps):
                    kernel(values, starts, ends)
                batches.append((time.perf_counter() - t0) / reps * 1e6)
            out[f"{groups}x{rows} {name}"] = statistics.median(batches)
    return out


def memory_cell(cell: str) -> dict:
    import numpy as np
    from repro.sql.functions import SEGMENTED_AGGREGATES, segmented_moving_avg

    rng = np.random.default_rng(0)
    if cell == MEMORY[0]:
        lengths = np.r_[np.ones(200_000, dtype=np.int64), 128]
        values = rng.standard_normal(lengths.sum())
        starts = np.cumsum(lengths) - lengths
        call = lambda: SEGMENTED_AGGREGATES["AVG"](values, starts,
                                                   starts + lengths)
    else:
        values = rng.standard_normal(207_360)
        call = lambda: segmented_moving_avg(
            values, np.array([0]), np.array([values.size]), 1000)
    t0 = time.perf_counter()
    call()
    seconds = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"peak_rss_mb": peak, "seconds": seconds}


def child(src: str, *what: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", src, *what],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(parent: str, change: str, rounds: int = 5) -> dict:
    runs = {"parent": [], "change": []}
    memory = {cell: {"parent": [], "change": []} for cell in MEMORY}
    for k in range(rounds):
        for side in (("parent", "change") if k % 2 == 0
                     else ("change", "parent")):
            src = parent if side == "parent" else change
            runs[side].append(child(src))
            for cell in MEMORY:
                memory[cell][side].append(child(src, cell))
    cells = {}
    for cell in runs["parent"][0]:
        p = statistics.median(r[cell] for r in runs["parent"])
        c = statistics.median(r[cell] for r in runs["change"])
        cells[cell] = {"parent_us": p, "change_us": c, "ratio": c / p,
                       "slower_than_allowed": c - p > max(0.10 * p, 5.0)}
    return {"unit": "us", "rounds": rounds, "cells": cells,
            "memory": {cell: {f"{side}_{key}": statistics.median(
                r[key] for r in sides[side])
                for side in sides for key in ("peak_rss_mb", "seconds")}
                for cell, sides in memory.items()}}


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        sys.path.insert(0, sys.argv[2])
        print(json.dumps(memory_cell(sys.argv[3]) if len(sys.argv) > 3
                         else time_cells()))
    else:
        print(json.dumps(main(sys.argv[1], sys.argv[2],
                              *map(int, sys.argv[3:]))))
