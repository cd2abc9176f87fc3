"""Shared pieces of the end-to-end benchmark: names, statistics, oracles.

The metric and layer names below are the single source the runner, the
comparer, the smoke test and ``BENCHMARK.json`` agree on.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

SCHEMA = "repro-e2e-bench/1"
HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

WORKLOADS = ("explain-cold-wide", "sql-cold-mix", "dashboard-ingest",
             "ingest-recover")

#: ``BENCHMARK.json`` lists what the driver gates: every workload reports
#: ``op_ms``, ``peak_rss_mb`` and ``setup_s`` on an untraced run.
#: ``op_ms`` is the fast quartile (see ``fast_quartile``) of the
#: workload's unit-operation times; the named metric below is the median
#: of the same samples.  The issue's workload-specific names are reported
#: beside it and gated by compare.py.
UNIT_OPERATION = {
    "explain-cold-wide": "explain_cold_s",
    "sql-cold-mix": "sql_pass_s",
    "dashboard-ingest": "req_window_ms",
    "ingest-recover": "cycle_s",
}

#: The issue's end-to-end names that BENCHMARK.json cannot carry (it
#: wants every metric from every workload): (better, bound), all at the
#: issue's starting bound, for compare.py.
NAMED = {
    "explain_cold_s": ("lower", 0.10),
    "sql_pass_s": ("lower", 0.10),
    "req_p50_ms": ("lower", 0.10),
    "req_p95_ms": ("lower", 0.10),
    "req_p99_ms": ("lower", 0.10),
    "req_window_ms": ("lower", 0.10),
    "write_p50_ms": ("lower", 0.10),
    "ingest_points_per_s": ("higher", 0.10),
    "checkpoint_s": ("lower", 0.10),
    "recover_s": ("lower", 0.10),
    "cycle_s": ("lower", 0.10),
    "failed_share": ("lower", 0.0),
}

#: Names that failed the A/A check at 0.10 on the machine the baseline
#: was recorded on (see the README): compare.py prints their verdicts
#: but they do not set its exit status.  The issue's rule: demote, do
#: not widen the bound.
DEMOTED = frozenset(NAMED) - {"failed_share"}

#: Counts that must repeat exactly between same-seed runs at full size
#: (time-bound loops make operation totals vary; ``--smoke`` fixes the
#: operation counts, and then every count is exact).
EXACT_COUNTS = {
    "explain-cold-wide": ("points", "series", "planted", "hypotheses_per_op",
                          "cache_hits"),
    "sql-cold-mix": ("points", "series", "cache_hits"),
    "dashboard-ingest": ("points_at_start", "series", "requests",
                         "requests_by_rung"),
    "ingest-recover": ("points", "series", "disk_bytes", "snapshot_bytes",
                       "wal_bytes", "wal_records"),
}

#: Layer = module name.  Each gives ``<layer>_ms``: self time per unit
#: operation on the traced run, 0 where the workload bypasses the layer.
LAYERS = (
    "workloads", "tsdb.sharded", "tsdb.wal", "tsdb.persist", "tsdb.adapter",
    "sql.parser", "sql.optimizer", "sql.planner", "sql.executor",
    "serve.cache", "serve.server", "core.families", "core.hypothesis",
    "engine_exec.batch", "scoring", "core.ranking",
)



def benchmark_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: gated names, units, bounds and ``run_seconds``."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(sorted_values) - 1,
                      int(-(-pct * len(sorted_values) // 100)) - 1))
    return float(sorted_values[rank])


def fast_quartile(values: Sequence[float]) -> float:
    """The 25th percentile: the time a quiet machine gives.

    On a shared 2-vCPU VM interference only ever adds time, in bursts
    that last seconds, so the fast quartile of a run's operation times
    repeats run to run two to three times better than their median; a
    change to the code moves both.
    """
    return percentile(sorted(values), 25.0)


def supported_tail(n_samples: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n_samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def metric(value: float, unit: str, samples: int) -> dict[str, Any]:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


# ---------------------------------------------------------------------------
# Process and environment
# ---------------------------------------------------------------------------

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(n: int = 2) -> None:
    """Pin BLAS/OpenMP pools; must run before numpy is imported."""
    for name in THREAD_ENV:
        os.environ[name] = str(n)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict[str, Any]:
    import numpy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "server": {"n_workers": 2, "rank_workers": 2, "backend": None,
                   "transfer": "shm", "cache_entries": 256,
                   "keep_versions": 2},
        "store": {"n_shards": 8, "fsync_every": 64},
        "load_threads_max": 2,
    }


class WorkDir:
    """Scratch space inside the checkout; nothing outlives ``close``."""

    ROOT = HERE / ".work"

    def __init__(self) -> None:
        self.ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=self.ROOT))
        self._n = 0

    def fresh(self) -> Path:
        self._n += 1
        path = self.path / f"d{self._n}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.ROOT.rmdir()
        except OSError:
            pass                      # another run is still using it


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def bitwise_rows(table) -> list[tuple]:
    """Rows with floats struct-packed, so -0.0/NaN/ulp differences show."""
    return [tuple(struct.pack("<d", c) if isinstance(c, float) else c
                  for c in row) for row in table.rows]


def tables_bitwise_equal(a, b) -> bool:
    return a.columns == b.columns and bitwise_rows(a) == bitwise_rows(b)


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any
          ) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def ops_until(seconds: float, min_ops: int) -> Iterator[int]:
    """Operation indices for ``seconds`` s, and at least ``min_ops`` of them.

    ``--smoke`` passes 0 s, so the count is exactly ``min_ops`` and every
    count the workload reports repeats.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        yield i
        i += 1


def input_digest(series) -> str:
    """SHA-256 over ``(series id, timestamps, values)`` triples."""
    h = hashlib.sha256()
    for sid, ts, values in series:
        h.update(str(sid).encode())
        h.update(ts.tobytes())
        h.update(values.tobytes())
    return h.hexdigest()


def ingest_batches(store, series, batch: int) -> int:
    """``insert_array`` every series in ``batch``-point slices; points."""
    points = 0
    for sid, ts, values in series:
        for i in range(0, ts.size, batch):
            store.insert_array(sid, ts[i:i + batch], values[i:i + batch])
        points += int(ts.size)
    return points


def repeat_setup(build: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int) -> tuple[list[float], Any]:
    """Set up ``repeats`` times; keep the last state, tear down the rest."""
    seconds: list[float] = []
    state = None
    for i in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        elapsed, state = timed(build)
        seconds.append(elapsed)
    return seconds, state


def layer_ms(seconds: dict[str, float]) -> dict[str, float]:
    """``<layer>_ms`` for every layer, 0 for one the workload bypasses."""
    return {f"{layer}_ms": 1000.0 * seconds.get(layer, 0.0)
            for layer in LAYERS}


def cache_counters(server) -> dict[str, float]:
    """The serve.cache counters every traced run reports."""
    cache = server.stats()["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {"cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "cache_evictions": cache["evictions"],
            "cache_invalidations": cache["invalidations"]}


def print_metrics(title: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(title)
    for name, m in metrics.items():
        samples = f"  n={m['samples']}" if "samples" in m else ""
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}{samples}{note}")


def flatten(items: Iterable[Iterable[Any]]) -> list[Any]:
    return [x for item in items for x in item]
