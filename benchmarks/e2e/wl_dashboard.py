"""``dashboard-ingest``: timer-driven dashboard reads beside writes.

Set-up is the whole ingest loop: incident matrix -> WAL-backed sharded
ingest -> ``checkpoint()`` -> close -> ``open(wal, snapshot=...)``.
Then an **open loop** (dashboards refresh on timers whatever the server
does): one generator thread submits requests on a fixed schedule — per
ten requests seven hot panels from a five-panel set that fits the
result cache, two never-repeated cold range scans and one ranking
request alternating ``explain``/``drill_down`` — at three fixed rates
back to back, while one writer thread appends a small batch to its own
series on a fixed schedule.  Latency runs from each request's *due*
time to the completion of its future.  Every version bump sweeps
``serve.cache`` and makes the next refresh rebuild the per-version
state, so a change that buys the other workloads speed by caching more
per version pays for it here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import harness
import wl_explain
import wl_sql
from repro.serve import QueryServer, normalize_query
from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.workloads.matrix import N_SAMPLES, ScenarioSpec, build_scenario

NAME = "dashboard-ingest"
#: Slot kinds per ten requests: 7 hot, 2 cold, 1 ranking.
PATTERN = "HHHCHHHCHR"
DRILL_EXTRA = ("host_cpu", "host_mem", "flow_throughput")
WRITER_SERIES = SeriesId.make("bench_writer", {"host": "bench"})


def hot_panels(n_samples: int) -> list[str]:
    """The five-panel hot set (fits ``cache_entries=256`` 51 times over)."""
    return [
        "SELECT metric_name, COUNT(*) AS n, AVG(value) AS v FROM tsdb "
        "GROUP BY metric_name ORDER BY metric_name",
        f"SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
        f"WHERE timestamp BETWEEN 64 AND {n_samples // 2} "
        f"GROUP BY metric_name ORDER BY metric_name",
        "SELECT metric_name, COUNT(*) AS n FROM tsdb "
        "WHERE tag['host'] = 'host-1' GROUP BY metric_name "
        "ORDER BY metric_name",
        "SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
        "WHERE metric_name = 'service_latency'",
        "SELECT timestamp, AVG(value) AS v FROM tsdb "
        "WHERE metric_name = 'queue_depth' AND tag['link'] = 'core' "
        "GROUP BY timestamp ORDER BY timestamp",
    ]


def cold_scan(k: int, n_samples: int) -> str:
    """A range scan nobody asked before and nobody will again."""
    room = n_samples - 100
    lo = k % room
    return (f"SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
            f"WHERE timestamp BETWEEN {lo} AND {lo + 96 + k // room}")


@dataclass
class State:
    size: dict
    store: ShardedTimeSeriesStore
    server: QueryServer
    n_samples: int
    target: str
    causes: frozenset
    drill: list[str]
    panels: list[str]
    write_values: np.ndarray
    input_digest: str
    points: int
    n_series: int
    generation_s: float
    slots: int = 0                # requests scheduled so far, all rungs
    colds: int = 0
    writes: int = 0

    def write(self) -> None:
        """Append the writer's next batch (strictly increasing stamps)."""
        n = self.size["write_batch"]
        start = self.writes * n
        ts = np.arange(start, start + n, dtype=np.int64)
        values = self.write_values[ts % self.write_values.size]
        self.store.insert_array(WRITER_SERIES, ts, values)
        self.writes += 1

    def submit(self, slot: int):
        """Submit the request scheduled for ``slot``; (kind, future)."""
        kind = PATTERN[slot % len(PATTERN)]
        if kind == "H":
            hot = (slot // len(PATTERN)) * 7 + PATTERN[:slot % 10].count("H")
            return "hot", self.server.submit_sql(
                self.panels[hot % len(self.panels)])
        if kind == "C":
            self.colds += 1
            return "cold", self.server.submit_sql(
                cold_scan(self.colds, self.n_samples))
        if (slot // len(PATTERN)) % 2 == 0:
            return "explain", self.server.submit_explain(self.target)
        return "drill_down", self.server.submit_explain(
            self.target, search=self.drill, kind="drill_down")


def setup(seed: int, size: dict, work: harness.WorkDir) -> State:
    spec = ScenarioSpec("network_congestion", "wide", seed)
    generation_s, scenario = harness.timed(build_scenario, spec,
                                           scale=size["scale"])
    series = list(scenario.store.iter_arrays())
    directory = work.fresh()
    wal, snapshot = directory / "wal.log", directory / "snapshot.bin"
    store = ShardedTimeSeriesStore.open(wal)
    points = harness.ingest_batches(store, series, size["batch"])
    store.checkpoint(snapshot)
    store.close()
    store = ShardedTimeSeriesStore.open(wal, snapshot=snapshot)
    server = QueryServer(store, n_workers=2, rank_workers=2)
    n_samples = size["scale"] * N_SAMPLES
    state = State(
        size=size, store=store, server=server, n_samples=n_samples,
        target=scenario.target, causes=scenario.causes,
        drill=sorted(scenario.causes) + list(DRILL_EXTRA),
        panels=hot_panels(n_samples),
        write_values=np.random.default_rng(seed).standard_normal(n_samples),
        input_digest=harness.input_digest(series), points=points,
        n_series=len(series), generation_s=generation_s)
    state.write()
    for slot in range(2 * len(PATTERN)):          # every request kind once
        state.submit(slot)[1].result()
    return state


def teardown(state: State) -> None:
    state.server.close()
    state.store.close()


# ---------------------------------------------------------------------------
# The open loop
# ---------------------------------------------------------------------------

@dataclass
class Rung:
    rate: float
    n: int
    start: float = 0.0
    due: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    seen: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    futures: list[Any] = field(default_factory=list)


def _generate(state: State, rung: Rung, writer: "Writer") -> None:
    """Generator thread body: submit on schedule, never wait for replies.

    The rung starts a quarter slot after a writer tick, so version bumps
    fall at the same places in the request pattern on every run.
    """
    rung.done = [float("nan")] * rung.n
    rung.start = writer.tick_after(time.perf_counter() + 0.01) \
        + 0.25 / rung.rate
    for i in range(rung.n):
        due = rung.start + i / rung.rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rung.late.append(time.perf_counter() - due)
        rung.due.append(due)
        rung.seen.append(state.store.version)
        try:
            kind, future = state.submit(state.slots)
        except RuntimeError:                  # refused: the server is closed
            kind, future = "refused", None
        state.slots += 1
        rung.kinds.append(kind)
        rung.futures.append(future)
        if future is not None:
            future.add_done_callback(
                lambda _, i=i: rung.done.__setitem__(i, time.perf_counter()))


class Writer(threading.Thread):
    """Appends one batch every ``1/write_hz`` s until stopped."""

    def __init__(self, state: State) -> None:
        super().__init__(name="bench-writer")
        self.state = state
        self.stop = threading.Event()
        self.latency: list[float] = []
        self.late: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.period = 1.0 / state.size["write_hz"]
        self.origin = time.perf_counter() + self.period

    def tick_after(self, when: float) -> float:
        """The first write due time at or after ``when``."""
        ticks = max(0, -int(-(when - self.origin) // self.period))
        return self.origin + ticks * self.period

    def run(self) -> None:
        i = 0
        while True:
            due = self.origin + i * self.period
            if self.stop.wait(max(0.0, due - time.perf_counter())):
                return
            begin = time.perf_counter()
            self.state.write()
            end = time.perf_counter()
            self.late.append(begin - due)
            self.latency.append(end - due)
            self.spans.append((begin, end))
            i += 1


def _check(state: State, rung: Rung) -> tuple[int, list[dict]]:
    """Failures in a drained rung, and one record per request."""
    failed, records = 0, []
    for i, future in enumerate(rung.futures):
        record = {"kind": rung.kinds[i], "due": rung.due[i],
                  "done": rung.done[i], "ok": False}
        records.append(record)
        if future is None or future.exception() is not None:
            failed += 1
            continue
        served = future.result()
        ok = served.version >= rung.seen[i]          # never stale
        if rung.kinds[i] == "explain":
            top3 = {row.family for row in served.value.results[:3]}
            ok = ok and bool(top3 & state.causes)
        elif rung.kinds[i] == "drill_down":
            ok = ok and len(served.value.results) > 0
        else:
            ok = ok and len(served.value) > 0
        record.update(ok=ok, cached=served.cached, seconds=served.seconds,
                      version=served.version)
        failed += not ok
    return failed, records


def _run_rung(state: State, writer: Writer, rate: float,
              seconds: float) -> Rung:
    n = max(state.size["min_rung_requests"], int(round(rate * seconds)))
    rung = Rung(rate=rate, n=n)
    generator = threading.Thread(target=_generate,
                                 args=(state, rung, writer),
                                 name="bench-generator")
    generator.start()
    generator.join()
    for future in rung.futures:               # drain before the next rung
        if future is not None:
            future.exception()
    # Done-callbacks run just after waiters wake; let the last one land.
    while any(d != d for d, f in zip(rung.done, rung.futures)
              if f is not None):
        time.sleep(0.001)
    return rung


def _window_means(state: State, rung: Rung, records: list[dict]
                  ) -> list[float]:
    """Mean request latency (s) over each window of two write periods.

    A window holds whole request patterns and two version bumps with
    everything they cause — the sweep, the per-version rebuild, the
    panels' misses, the requests queued behind them — plus the hits
    around them, so every window of a rung carries the same work.
    """
    per_window = len(PATTERN) * max(1, round(
        2 * rung.rate / state.size["write_hz"] / len(PATTERN)))
    latency = [r["done"] - r["due"] if r["ok"] else float("inf")
               for r in records]
    return [sum(latency[i:i + per_window]) / per_window
            for i in range(0, len(latency) - per_window + 1, per_window)]


def _rung_stats(state: State, rung: Rung, records: list[dict]) -> dict:
    limit = state.size["limit_ms"]
    latency = sorted(1000.0 * (r["done"] - r["due"]) if r["ok"]
                     else float("inf") for r in records)
    tail_pct = harness.supported_tail(len(latency))
    end = rung.start + rung.n / rung.rate
    backlog = sum(1 for r in records if not r["done"] <= end)
    stats = {
        "rate": rung.rate, "requests": rung.n,
        "p50_ms": harness.percentile(latency, 50.0),
        "p95_ms": harness.percentile(latency, 95.0),
        "mean_ms": sum(latency) / len(latency),
        "tail_pct": tail_pct,
        "tail_ms": harness.percentile(latency, tail_pct)
        if tail_pct is not None else None,
        "max_ms": latency[-1],
        "backlog_at_end": backlog,
        "generator_late_p50_ms": 1000.0 * harness.median(rung.late),
        "generator_late_max_ms": 1000.0 * max(rung.late),
    }
    worst = stats["tail_ms"] if stats["tail_ms"] is not None \
        else stats["max_ms"]
    # No growing backlog: under 200 ms of offered load still in flight.
    stats["meets_limit"] = bool(worst <= limit
                                and backlog <= 0.2 * rung.rate)
    return stats


def measure(state: State, seconds: float) -> dict:
    writer = Writer(state)
    writer.start()
    rungs, failed, attempted = [], 0, 0
    rates = state.size["rates"]
    try:
        for rate, share in zip(rates, state.size["shares"]):
            rung = _run_rung(state, writer, rate, share * seconds)
            bad, records = _check(state, rung)
            failed += bad
            attempted += rung.n
            rungs.append(_rung_stats(state, rung, records))
            if rate == rates[len(rates) // 2]:
                windows = _window_means(state, rung, records)
    finally:
        writer.stop.set()
        writer.join()
    middle = rungs[len(rungs) // 2]
    ok_rates = [r["rate"] for r in rungs if r["meets_limit"]]
    metrics = {
        "req_p50_ms": harness.metric(middle["p50_ms"], "ms",
                                     middle["requests"]),
        "req_p95_ms": harness.metric(middle["p95_ms"], "ms",
                                     middle["requests"]),
        "req_window_ms": harness.metric(
            1000.0 * harness.median(windows), "ms", len(windows)),
        "write_p50_ms": harness.metric(
            1000.0 * harness.median(writer.latency), "ms",
            len(writer.latency)),
    }
    diagnostics = {
        "max_ok_rate": harness.metric(max(ok_rates, default=0.0), "req/s",
                                      len(rungs)),
        "writer_late_p50_ms": harness.metric(
            1000.0 * harness.median(writer.late), "ms", len(writer.late)),
        "writer_late_max_ms": harness.metric(
            1000.0 * max(writer.late), "ms", len(writer.late)),
        "rungs": rungs,
    }
    for rung in rungs:
        tag = f"req_{int(rung['rate'])}rps"
        diagnostics[f"{tag}_mean_ms"] = harness.metric(
            rung["mean_ms"], "ms", rung["requests"])
        diagnostics[f"{tag}_p50_ms"] = harness.metric(
            rung["p50_ms"], "ms", rung["requests"])
        if rung["tail_ms"] is not None:
            diagnostics[f"{tag}_p{rung['tail_pct']:g}_ms"] = harness.metric(
                rung["tail_ms"], "ms", rung["requests"])
        diagnostics[f"{tag}_generator_late_max_ms"] = harness.metric(
            rung["generator_late_max_ms"], "ms", rung["requests"])
    # A p99 needs ten samples beyond it: 1000 requests at the middle rate.
    if middle["tail_pct"] is not None and middle["tail_pct"] >= 99.0:
        metrics["req_p99_ms"] = harness.metric(
            middle["tail_ms"], "ms", middle["requests"])
    return {
        "attempted": attempted, "failed": failed,
        "op_seconds": windows, "metrics": metrics,
        "diagnostics": diagnostics,
        "counts": {
            "requests": attempted, "points_at_start": state.points,
            "series": state.n_series,
            "requests_by_rung": [r["requests"] for r in rungs],
        },
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced(state: State, seconds: float, tracer) -> dict:
    """The middle rung with root spans, then quiesced decomposed replays."""
    rate = state.size["rates"][len(state.size["rates"]) // 2]
    writer = Writer(state)
    writer.start()
    try:
        rung = _run_rung(state, writer, rate, 0.6 * seconds)
    finally:
        writer.stop.set()
        writer.join()
    failed, records = _check(state, rung)
    for i, r in enumerate(records):
        tracer.record("request", r["due"], r["done"], request=i)
    for begin, end in writer.spans:
        tracer.record("write", begin, end)
    served = [r for r in records if "seconds" in r]
    root_ms = 1000.0 * sum(r["done"] - r["due"] for r in served) / len(served)
    service_ms = 1000.0 * sum(r["seconds"] for r in served) / len(served)

    # How often each path ran: cache hits, cold and hot SQL misses,
    # ranking misses, family builds (one per version that missed a
    # ranking) and per-version rebuilds (one per version served).
    def ran(cached: bool, *kinds: str) -> list[dict]:
        return [r for r in served if r["cached"] == cached
                and r["kind"] in kinds]

    rank_miss = ran(False, "explain", "drill_down")
    versions = len({r["version"] for r in served})
    family_builds = len({r["version"] for r in rank_miss})
    by_label = {"group": lambda request: request}

    samples = state.size["replay_samples"]
    mark = len(tracer.spans)
    for _ in range(samples):                  # per-version rebuild
        state.write()
        with tracer.span("replay", request="rebuild"):
            with tracer.span("tsdb.sharded"):
                snapshot = state.store.snapshot()
            with tracer.span("tsdb.adapter"):
                db = Database()
                register_store(db, snapshot)
                db.table("tsdb")
                db.stats_for("tsdb")
    rebuild = tracer.layer_medians("replay", since=mark)
    mark = len(tracer.spans)
    for k in range(samples):                  # cache hit
        with tracer.span("replay", request="hit"):
            with tracer.span("serve.cache"):
                normalize_query(state.panels[k % len(state.panels)])
            with tracer.span("tsdb.sharded"):
                state.store.snapshot()
    hit = tracer.layer_medians("replay", since=mark)
    db = wl_sql.traced_database(state.store.snapshot(), tracer)
    db.table("tsdb")
    mark = len(tracer.spans)
    for _ in range(samples):                  # cold scan (always a miss)
        state.colds += 1
        wl_sql.replay_statement(tracer, state.store, db,
                                cold_scan(state.colds, state.n_samples),
                                "cold")
    cold = tracer.layer_medians("replay", since=mark)
    mark = len(tracer.spans)
    for _ in range(samples):                  # one refresh of every panel
        for j, panel in enumerate(state.panels):
            wl_sql.replay_statement(tracer, state.store, db, panel,
                                    f"hot:{j}")
    refresh = tracer.layer_medians("replay", since=mark, **by_label)
    mark = len(tracer.spans)
    n_hyp = 0
    for _ in range(samples):                  # explain + drill-down misses
        for label, search in (("explain", None), ("drill_down", state.drill)):
            hyps, _ = wl_explain.replay_explain(
                tracer, state.store, state.target, label, search=search)
            n_hyp = max(n_hyp, len(hyps))
    rank_pair = tracer.layer_medians("replay", since=mark, **by_label)

    n = len(served)
    weights = [(hit, len(ran(True, "hot", "cold", "explain", "drill_down"))),
               (cold, len(ran(False, "cold"))),
               (refresh, len(ran(False, "hot")) / len(state.panels)),
               (rebuild, versions)]
    layers = {layer: 0.0 for layer in harness.LAYERS}
    for typical, count in weights:
        for layer, value in typical.items():
            if layer in layers:
                layers[layer] += value * count
    for layer, value in rank_pair.items():
        if layer in layers:
            layers[layer] += value / 2 * (
                family_builds if layer == "core.families" else len(rank_miss))
    out = {f"{layer}_ms": 1000.0 * total / n
           for layer, total in layers.items()}
    covered = sum(out.values())
    out["serve.server_ms"] = service_ms - covered
    out["workloads_ms"] = 1000.0 * state.generation_s
    out["tsdb.sharded_ms"] += 1000.0 * sum(e - b for b, e in writer.spans) / n
    out.update(wl_sql.scan_shares(tracer))
    out.update(harness.cache_counters(state.server))
    out.update({
        "span_coverage": covered / service_ms,
        "trace_overhead": 1.0,    # root spans are recorded after the loop
        "queue_wait_ms": root_ms - service_ms,
        "version_bumps": state.writes,
        "hypotheses": n_hyp,
    })
    return {"attempted": rung.n, "failed": failed, "layers": out,
            "root_ms": root_ms,
            "diagnostics": {
                "versions_served": harness.metric(versions, "count", n),
                "service_ms": harness.metric(service_ms, "ms", n)}}
