"""Where one in-horizon ``explain-cold-wide`` op spends its time.

Builds the end-to-end workload's store and server, then times OPS
served explains, each after one heartbeat append inside the horizon
(the workload's own op), and splits every op into the server's steps
by wrapping the functions it calls:

- ``snapshot``: ``TimeSeriesStore.read_view`` (freezing the new view);
- ``families``: ``families_from_store``;
- ``inherit``: ``_Generation.inherit`` (carrying the answers and
  prepared targets across versions);
- ``hypotheses``: ``generate_hypotheses`` (0 calls in an op whose
  request shape has a carried answer);
- ``scoring``: ``HypothesisExecutor.score``;
- ``prepare``: ``L2Scorer.prepare`` (the target's (Y, Z) preparation,
  inside ``scoring``; 0 calls in an op that finds it carried over);
- ``score_table``: ranking into the Score Table — ``build_score_table``,
  ``rank_scores``, ``Ranking.rescored`` (patching a carried ranking)
  and ``Ranking.table``, a nested call counted once;
- ``op``: the whole ``QueryServer.explain`` call.

It also counts, per op, the store scans (``ScanQuery.run``), the member
columns aligned (``align_to_grid`` as called by the family builder),
the hypotheses scored and the member lookups (series ids passed to
``StoreView.get`` and ``StoreView.get_many``), and the series written
(one per op).

Run from the repository root (any commit that has the wrapped names)::

    python3 benchmarks/bench_explain_steps.py SEED OPS [--check]

The last stdout line is JSON: per step, the median ms per op (a step
not called in an op counts 0) and the call count per op, and the mean
of each count per op.  ``--check`` then exits 1, naming the op, when
any op scanned the store, aligned more than the written family's one
member, scored more than one hypothesis or looked up more members than
it wrote: these counts do not depend on timing, so the check is exact.
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
from repro.scoring.table import Ranking  # noqa: E402
from repro.tsdb.query import ScanQuery  # noqa: E402
from repro.tsdb.storage import StoreView, TimeSeriesStore  # noqa: E402

WARMUP_OPS = 5
STEPS = {
    "snapshot": [(TimeSeriesStore, "read_view")],
    "families": [(server_module, "families_from_store")],
    "inherit": [(server_module._Generation, "inherit")],
    "hypotheses": [(server_module, "generate_hypotheses")],
    "scoring": [(HypothesisExecutor, "score")],
    "prepare": [(L2Scorer, "prepare")],
    "score_table": [(server_module, "build_score_table"),
                    (server_module, "rank_scores"),
                    (Ranking, "rescored"), (Ranking, "table")],
}


COUNTS = {
    "scans": (ScanQuery, "run", lambda *args: 1),
    "aligned": (families_module, "align_to_grid", lambda *args: 1),
    "scored": (HypothesisExecutor, "score",
               lambda executor, hypotheses, *rest: len(hypotheses)),
    "lookups": (StoreView, "get", lambda view, series: 1),
}
#: What one op may do at most in an in-horizon op (``--check``): the
#: heartbeat family has one member, and it is the only one written.
LIMITS = {"scans": 0, "aligned": 1, "scored": 1, "lookups": 1}


def wrap(owner, name: str, step: str, spent: dict, active: set) -> None:
    """Time calls of ``owner.name`` as ``step``; a call made while the
    step is already being timed (one wrapped function calling another)
    is not counted again."""
    real = getattr(owner, name)

    def timed(*args, **kwargs):
        if step in active:
            return real(*args, **kwargs)
        active.add(step)
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent[step].append(time.perf_counter() - start)
            active.discard(step)

    setattr(owner, name, timed)


def count(owner, name: str, key: str, amount, counted: dict) -> None:
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counted[key] += amount(*args)
        return real(*args, **kwargs)

    setattr(owner, name, counting)


def count_get_many(counted: dict) -> None:
    """Count the series ids ``StoreView.get_many`` looks up (it takes
    any iterable, so the wrapper materialises it first)."""
    real = StoreView.get_many

    def counting(self, series_ids):
        series_ids = list(series_ids)
        counted["lookups"] += len(series_ids)
        return real(self, series_ids)

    StoreView.get_many = counting


def violations(per_op_counts: list[dict]) -> list[str]:
    """One line per op and count over :data:`LIMITS`."""
    return [f"op {k}: {key} = {counts.get(key, 0)} > {limit}"
            for k, counts in enumerate(per_op_counts)
            for key, limit in LIMITS.items()
            if counts.get(key, 0) > limit]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv
    argv = [arg for arg in argv if arg != "--check"]
    seed, n_ops = int(argv[0]), int(argv[1])
    state = wl_explain.setup(seed, sizes.FULL["explain-cold-wide"], None)
    spent: dict[str, list[float]] = defaultdict(list)
    counted: dict[str, int] = defaultdict(int)
    active: set[str] = set()
    for key, (owner, name, amount) in COUNTS.items():
        count(owner, name, key, amount, counted)
    count_get_many(counted)
    for step, targets in STEPS.items():
        for owner, name in targets:
            wrap(owner, name, step, spent, active)
    per_op: dict[str, list[float]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    per_op_counts: list[dict] = []
    try:
        for k in range(WARMUP_OPS + n_ops):
            state.beat()
            spent.clear()
            counted.clear()
            start = time.perf_counter()
            state.server.explain(wl_explain.TARGET)
            elapsed = time.perf_counter() - start
            if k < WARMUP_OPS:
                continue
            per_op_counts.append(dict(counted))
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
        "counts_per_op": {key: sum(c.get(key, 0) for c in per_op_counts)
                          / n_ops for key in LIMITS},
    }))
    if check:
        failures = violations(per_op_counts)
        for line in failures[:20]:
            print(line, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
