"""Where one in-horizon ``explain-cold-wide`` op spends its time.

Builds the end-to-end workload's store and server, then times OPS
served explains, each after one heartbeat append inside the horizon
(the workload's own op), and splits every op into the server's steps
by wrapping the functions it calls:

- ``snapshot``: ``TimeSeriesStore.read_view`` (freezing the new view);
- ``families``: ``families_from_store``;
- ``inherit``: ``_Generation.inherit`` (carrying work across versions);
- ``hypotheses``: ``generate_hypotheses``;
- ``scoring``: ``HypothesisExecutor.score``;
- ``prepare``: ``L2Scorer.prepare`` (the target's (Y, Z) preparation,
  inside ``scoring``; 0 calls in an op that finds it carried over);
- ``score_table``: ``build_score_table``;
- ``op``: the whole ``QueryServer.explain`` call.

It also counts, per op, the store scans (``ScanQuery.run``), the member
columns aligned (``align_to_grid`` as called by the family builder) and
the hypotheses scored.

Run from the repository root (any commit that has the wrapped names)::

    python3 benchmarks/bench_explain_steps.py SEED OPS

The last stdout line is JSON: per step, the median ms per op (a step
not called in an op counts 0) and the call count per op, and the mean
of each count per op.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import harness  # noqa: E402

harness.pin_threads(2)            # before numpy is first imported
sys.path.insert(0, str(harness.REPO / "src"))

import sizes  # noqa: E402
import wl_explain  # noqa: E402
import repro.core.families as families_module  # noqa: E402
import repro.serve.server as server_module  # noqa: E402
from repro.engine_exec.executor import HypothesisExecutor  # noqa: E402
from repro.scoring.joint import L2Scorer  # noqa: E402
from repro.tsdb.query import ScanQuery  # noqa: E402
from repro.tsdb.storage import TimeSeriesStore  # noqa: E402

WARMUP_OPS = 5
STEPS = {
    "snapshot": (TimeSeriesStore, "read_view"),
    "families": (server_module, "families_from_store"),
    "inherit": (server_module._Generation, "inherit"),
    "hypotheses": (server_module, "generate_hypotheses"),
    "scoring": (HypothesisExecutor, "score"),
    "prepare": (L2Scorer, "prepare"),
    "score_table": (server_module, "build_score_table"),
}


COUNTS = {
    "scans": (ScanQuery, "run", lambda *args: 1),
    "aligned": (families_module, "align_to_grid", lambda *args: 1),
    "scored": (HypothesisExecutor, "score",
               lambda executor, hypotheses, *rest: len(hypotheses)),
}


def wrap(owner, name: str, step: str, spent: dict) -> None:
    real = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[step].append(time.perf_counter() - start)

    setattr(owner, name, timed)


def count(owner, name: str, key: str, amount, counted: dict) -> None:
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counted[key] += amount(*args)
        return real(*args, **kwargs)

    setattr(owner, name, counting)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seed, n_ops = int(argv[0]), int(argv[1])
    state = wl_explain.setup(seed, sizes.FULL["explain-cold-wide"], None)
    spent: dict[str, list[float]] = defaultdict(list)
    counted: dict[str, int] = defaultdict(int)
    for key, (owner, name, amount) in COUNTS.items():
        count(owner, name, key, amount, counted)
    for step, (owner, name) in STEPS.items():
        wrap(owner, name, step, spent)
    per_op: dict[str, list[float]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    try:
        for k in range(WARMUP_OPS + n_ops):
            state.beat()
            spent.clear()
            if k == WARMUP_OPS:
                counted.clear()
            start = time.perf_counter()
            state.server.explain(wl_explain.TARGET)
            elapsed = time.perf_counter() - start
            if k < WARMUP_OPS:
                continue
            per_op["op"].append(elapsed)
            for step in STEPS:
                per_op[step].append(sum(spent.get(step, ())))
                calls[step] += len(spent.get(step, ()))
    finally:
        wl_explain.teardown(state)
    print(json.dumps({
        "seed": seed, "ops": n_ops,
        "median_ms": {step: 1000.0 * statistics.median(times)
                      for step, times in per_op.items()},
        "calls_per_op": {step: calls[step] / n_ops for step in STEPS},
        "counts_per_op": {key: counted[key] / n_ops for key in COUNTS},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
