"""``explain-cold-wide``: version-cold ``explain`` over a wide store.

Closed loop, one client.  Each operation appends one heartbeat point —
which bumps ``store.version``, so the snapshot, the per-version state,
the family matrices and the result cache are all cold — and then calls
``QueryServer.explain(target)`` with server defaults.  Hundreds of
hypotheses go down to a handful: ``core.families``, ``core.hypothesis``,
``scoring``/``linmodel`` and ``core.ranking`` do the work, ``sql`` and
``serve.cache`` do none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import harness
from repro.core.families import families_from_store
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import DEFAULT_TOP_K, rank_families
from repro.engine_exec.batch import plan_batches
from repro.serve import QueryServer
from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.sharded import ShardedTimeSeriesStore

NAME = "explain-cold-wide"
TARGET = "target"
HEARTBEAT = SeriesId.make("heartbeat", {"host": "bench"})
#: Layers on the served path of a cold explain (coverage is their share).
ON_PATH = ("tsdb.sharded", "tsdb.adapter", "core.families",
           "core.hypothesis", "scoring", "core.ranking")


def generate(seed: int, size: dict):
    """Wide store: ``families`` metrics x ``hosts``; every
    ``cause_every``-th family is planted into the per-host target."""
    rng = np.random.default_rng(seed)
    n = size["samples"]
    ts = np.arange(n, dtype=np.int64)      # strictly increasing per series
    series, planted = [], []
    target = np.zeros((size["hosts"], n))
    for f in range(size["families"]):
        name = f"m{f:04d}"
        is_cause = f % size["cause_every"] == 0
        if is_cause:
            planted.append(name)
        for h in range(size["hosts"]):
            values = rng.standard_normal(n)
            if is_cause:
                target[h] += values
            series.append((SeriesId.make(name, {"host": f"h{h}"}), ts, values))
    for h in range(size["hosts"]):
        series.append((SeriesId.make(TARGET, {"host": f"h{h}"}), ts,
                       target[h] + 0.5 * rng.standard_normal(n)))
    heartbeat = rng.standard_normal(n)
    return series, planted, heartbeat


@dataclass
class State:
    size: dict
    store: ShardedTimeSeriesStore
    server: QueryServer
    planted: list[str]
    heartbeat: np.ndarray
    beats: int
    input_digest: str
    points: int
    n_series: int
    generation_s: float

    def beat(self) -> None:
        """Append one point: the version bump that makes the op cold."""
        i = self.beats
        self.store.insert_array(
            HEARTBEAT, np.asarray([i], dtype=np.int64),
            np.asarray([self.heartbeat[i % self.heartbeat.size]]))
        self.beats += 1

    def check(self, table) -> bool:
        """Every planted cause ranks inside the top planted-count + 2."""
        cut = len(self.planted) + 2
        top = {row.family for row in table.results[:cut]}
        return all(name in top for name in self.planted)


def setup(seed: int, size: dict, work: harness.WorkDir) -> State:
    generation_s, (series, planted, heartbeat) = harness.timed(
        generate, seed, size)
    store = ShardedTimeSeriesStore()
    points = harness.ingest_batches(store, series, size["samples"])
    server = QueryServer(store, n_workers=2, rank_workers=2)
    state = State(size=size, store=store, server=server, planted=planted,
                  heartbeat=heartbeat, beats=0,
                  input_digest=harness.input_digest(series), points=points,
                  n_series=len(series), generation_s=generation_s)
    for _ in range(size["warmup_ops"]):
        state.beat()
        server.explain(TARGET)
    return state


def teardown(state: State) -> None:
    state.server.close()


def measure(state: State, seconds: float) -> dict:
    times: list[float] = []
    hypotheses: set[int] = set()
    failed = 0

    for _ in harness.ops_until(seconds, state.size["min_ops"]):
        state.beat()
        elapsed, table = harness.timed(state.server.explain, TARGET)
        times.append(elapsed)
        hypotheses.add(table.n_hypotheses)
        failed += not state.check(table)
    cache = state.server.stats()["cache"]
    return {
        "attempted": len(times), "failed": failed,
        "op_seconds": times,
        "metrics": {
            "explain_cold_s": harness.metric(harness.median(times), "s",
                                             len(times)),
        },
        "diagnostics": {
            "explain_cold_min_s": harness.metric(min(times), "s", len(times)),
            "explain_cold_max_s": harness.metric(max(times), "s", len(times)),
        },
        "counts": {
            "ops": len(times), "points": state.points,
            "series": state.n_series,
            "hypotheses_per_op": sorted(hypotheses),
            "cache_hits": cache["hits"], "cache_misses": cache["misses"],
            "planted": len(state.planted),
        },
    }


def replay_explain(tracer, store, target: str, request, search=None):
    """One cold ranking request decomposed into the server's public calls."""
    with tracer.span("replay", request=request):
        with tracer.span("tsdb.sharded"):
            snap = store.snapshot()
        with tracer.span("tsdb.adapter"):
            register_store(Database(), snap)
        with tracer.span("core.families"):
            families = families_from_store(snap, group_by="name")
        with tracer.span("core.hypothesis"):
            hyps = generate_hypotheses(families, target, search=search)
        with tracer.span("core.ranking") as ranking:
            start = time.perf_counter()
            table = rank_families(hyps, scorer="L2-P50", top_k=DEFAULT_TOP_K,
                                  backend=None, n_workers=2, transfer="shm")
            # rank_families times its own scoring loop; the rest of the
            # call (sort, p-values, corrections) is core.ranking.
            tracer.record("scoring", start, start + table.total_seconds,
                          parent=ranking, request=request)
            table.to_table()
    return hyps, families


def traced(state: State, seconds: float, tracer) -> dict:
    """Alternate untraced ops, traced ops and their decomposed replays."""
    untraced: list[float] = []
    n_hyp = features = 0
    for i in harness.ops_until(seconds, state.size["min_ops"]):
        state.beat()
        if i % 2 == 0:
            untraced.append(harness.timed(state.server.explain, TARGET)[0])
            continue
        with tracer.span("request", request=i):
            state.server.explain(TARGET)
        state.beat()
        hyps, families = replay_explain(tracer, state.store, TARGET, i)
        # Not on the default backend's path; timed to confirm it is small.
        with tracer.span("engine_exec.batch", request=i):
            plan_batches(hyps)
        n_hyp, features = len(hyps), families.total_features()
    roots = tracer.durations("request")
    layers = tracer.layer_medians("replay")
    layers.update(tracer.layer_medians("engine_exec.batch"))
    out = harness.layer_ms(layers)
    covered = sum(out[f"{layer}_ms"] for layer in ON_PATH)
    root_ms = 1000.0 * harness.median(roots)
    out["serve.server_ms"] = root_ms - covered
    out["workloads_ms"] = 1000.0 * state.generation_s
    out.update(harness.cache_counters(state.server))
    out.update({
        "span_coverage": covered / root_ms,
        "trace_overhead": root_ms / (1000.0 * harness.median(untraced)),
        "version_bumps": state.beats,
        "hypotheses": n_hyp,
    })
    return {"attempted": len(roots) + len(untraced), "failed": 0,
            "layers": out, "root_ms": root_ms,
            "diagnostics": {"families_x_features_x_samples": [
                state.size["families"] + 2, features,
                state.size["samples"]]}}
