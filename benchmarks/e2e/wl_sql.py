"""``sql-cold-mix``: a never-repeating ten-statement mix at a fixed version.

Closed loop, one client, through ``QueryServer.query``.  Literals change
every pass, so no statement ever repeats: the result cache always misses
(and, past 256 distinct statements, evicts) while the per-version
``Database`` — materialised table, statistics — stays warm.  The parser,
optimizer, planner, executor/columnar and ``tsdb.adapter.scan_store`` do
the work; scoring does none.  Two statements (``PERCENTILE``,
``COUNT(DISTINCT ...)``) fall to the row interpreter today.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import harness
from repro.serve import QueryServer, normalize_query
from repro.sql import Database
from repro.sql.executor import Executor
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.tsdb.adapter import (
    register_store,
    scan_store,
    store_stats,
    tsdb_table,
)
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.workloads.matrix import N_SAMPLES, ScenarioSpec, build_scenario

NAME = "sql-cold-mix"
ON_PATH = ("serve.cache", "tsdb.sharded", "tsdb.adapter", "sql.parser",
           "sql.optimizer", "sql.planner", "sql.executor")
FALLBACK_CLASSES = ("percentile", "count_distinct")


def statements(p: int, n_samples: int) -> list[tuple[str, str]]:
    """Pass ``p`` of the mix; every literal depends on ``p``."""
    span = n_samples // 4
    lo = (37 * p) % (n_samples // 2)
    hi = lo + span
    narrow = lo + n_samples // 8
    tenant = f"tenant-{p % 8}"
    return [
        ("fullscan_agg",
         f"SELECT metric_name, COUNT(*) AS n, AVG(value) AS v, "
         f"MAX(value + {p}) AS hi FROM tsdb GROUP BY metric_name "
         f"ORDER BY metric_name"),
        ("range_agg",
         f"SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
         f"WHERE timestamp BETWEEN {lo} AND {hi} GROUP BY metric_name "
         f"ORDER BY metric_name"),
        ("tag_agg",
         f"SELECT metric_name, COUNT(*) AS n, SUM(value) AS s FROM tsdb "
         f"WHERE tag['tenant'] = '{tenant}' AND timestamp >= {p} "
         f"GROUP BY metric_name ORDER BY metric_name"),
        ("point_agg",
         f"SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
         f"WHERE metric_name = 'frontend_latency' AND timestamp >= {p}"),
        ("ts_groupby",
         f"SELECT timestamp, AVG(value) AS v FROM tsdb "
         f"WHERE metric_name = 'db_latency' AND timestamp >= {p} "
         f"GROUP BY timestamp ORDER BY timestamp"),
        ("selfjoin_order",
         f"SELECT a.timestamp, a.value AS fe, b.value AS io FROM tsdb a "
         f"JOIN tsdb b ON a.timestamp = b.timestamp "
         f"WHERE a.metric_name = 'frontend_latency' "
         f"AND b.metric_name = 'db_io_wait' "
         f"AND a.tag['tenant'] = '{tenant}' AND b.tag['tenant'] = '{tenant}' "
         f"AND a.timestamp >= {p} ORDER BY a.timestamp"),
        ("lag_window",
         f"SELECT timestamp, value - LAG(value) OVER (ORDER BY timestamp) "
         f"AS delta FROM tsdb WHERE metric_name = 'cache_latency' "
         f"AND tag['tenant'] = '{tenant}' AND timestamp >= {p}"),
        ("listing1",
         f"SELECT timestamp, tag['tenant'], AVG(value) AS latency FROM tsdb "
         f"WHERE metric_name = 'frontend_latency' "
         f"AND timestamp BETWEEN {lo} AND {lo + span // 2} "
         f"GROUP BY timestamp, tag['tenant'] ORDER BY timestamp ASC"),
        ("percentile",
         f"SELECT metric_name, PERCENTILE(value, 0.99) AS p99 FROM tsdb "
         f"WHERE timestamp BETWEEN {lo} AND {narrow} "
         f"GROUP BY metric_name ORDER BY metric_name"),
        ("count_distinct",
         f"SELECT metric_name, COUNT(DISTINCT tag['tenant']) AS tenants "
         f"FROM tsdb WHERE timestamp BETWEEN {lo + 1} AND {narrow} "
         f"GROUP BY metric_name ORDER BY metric_name"),
    ]


@dataclass
class State:
    size: dict
    store: ShardedTimeSeriesStore
    server: QueryServer
    n_samples: int
    next_pass: int
    input_digest: str
    points: int
    n_series: int
    generation_s: float


def setup(seed: int, size: dict, work: harness.WorkDir) -> State:
    spec = ScenarioSpec("microservice_cascade", "wide", seed)
    generation_s, scenario = harness.timed(build_scenario, spec,
                                           scale=size["scale"])
    series = list(scenario.store.iter_arrays())
    store = ShardedTimeSeriesStore()
    points = harness.ingest_batches(store, series, size["batch"])
    server = QueryServer(store, n_workers=2, rank_workers=2)
    n_samples = size["scale"] * N_SAMPLES
    state = State(size=size, store=store, server=server, n_samples=n_samples,
                  next_pass=0, input_digest=harness.input_digest(series),
                  points=points, n_series=len(series), generation_s=generation_s)
    for _ in range(size["warmup_passes"]):
        for _, query in statements(state.next_pass, n_samples):
            server.query(query)
        state.next_pass += 1
    return state


def teardown(state: State) -> None:
    state.server.close()


def _oracle(state: State, p: int, served: list) -> tuple[int, float]:
    """First pass, bitwise against the row interpreter; mismatches, secs."""
    start = time.perf_counter()
    reference = Database(columnar=False)
    register_store(reference, state.store.snapshot())
    wrong = sum(
        not harness.tables_bitwise_equal(reference.sql(query), table)
        for (_, query), table in zip(statements(p, state.n_samples), served))
    return wrong, time.perf_counter() - start


def measure(state: State, seconds: float) -> dict:
    pass_times: list[float] = []
    by_class: dict[str, list[float]] = {}
    rows = failed = attempted = 0
    first_pass, first_tables = state.next_pass, []
    for _ in harness.ops_until(seconds, state.size["min_passes"]):
        total = 0.0
        for name, query in statements(state.next_pass, state.n_samples):
            attempted += 1
            try:
                elapsed, served = harness.timed(state.server.query, query)
            except Exception as exc:      # a failed statement is a result
                print(f"  FAILED {name}: {exc!r}")
                failed += 1
                continue
            total += elapsed
            by_class.setdefault(name, []).append(elapsed)
            rows += len(served.value)
            failed += bool(served.cached)
            if state.next_pass == first_pass:
                first_tables.append(served.value)
        pass_times.append(total)
        state.next_pass += 1
    wrong, oracle_s = _oracle(state, first_pass, first_tables)
    cache = state.server.stats()["cache"]
    pass_s = harness.median(pass_times)
    fallback_s = sum(harness.median(by_class[c]) for c in FALLBACK_CLASSES
                     if c in by_class)
    diagnostics = {
        f"stmt_{name}_ms": harness.metric(1000.0 * harness.median(t), "ms",
                                          len(t))
        for name, t in by_class.items()}
    diagnostics["fallback_share_of_pass"] = harness.metric(
        fallback_s / pass_s, "ratio", len(pass_times))
    diagnostics["oracle_s"] = harness.metric(oracle_s, "s", 1)
    diagnostics["sql_pass_min_s"] = harness.metric(min(pass_times), "s",
                                                   len(pass_times))
    return {
        "attempted": attempted, "failed": failed + wrong,
        "op_seconds": pass_times,
        "metrics": {"sql_pass_s": harness.metric(pass_s, "s",
                                                 len(pass_times))},
        "diagnostics": diagnostics,
        "counts": {
            "passes": len(pass_times), "statements": attempted,
            "rows_returned": rows, "points": state.points,
            "series": state.n_series, "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
        },
    }


def traced_database(snapshot, tracer) -> Database:
    """A Database over ``snapshot`` whose scans record adapter spans.

    ``register_store`` does exactly this registration; doing it here
    lets the benchmark time ``scan_store`` from its own file.
    """
    def scan(predicate):
        with tracer.span("tsdb.adapter"):
            table, report = scan_store(snapshot, predicate)
        tracer.count("tsdb.adapter", "chunks_scanned", report.chunks_scanned)
        tracer.count("tsdb.adapter", "chunks_pruned", report.chunks_pruned)
        tracer.count("tsdb.adapter", "series_scanned", report.series_scanned)
        tracer.count("tsdb.adapter", "series_total", report.series_total)
        return table, report

    db = Database()
    db.register_scannable_provider(
        "tsdb", provider=lambda: tsdb_table(snapshot),
        version_fn=lambda: snapshot.version, scan_fn=scan,
        stats_fn=lambda: store_stats(snapshot))
    return db


def replay_statement(tracer, store, db: Database, query: str, request):
    """One SQL request decomposed into the public calls the server makes."""
    with tracer.span("replay", request=request):
        with tracer.span("serve.cache"):
            normalize_query(query)
        with tracer.span("tsdb.sharded"):
            store.snapshot()
        with tracer.span("sql.parser"):
            stmt = parse(query)
        with tracer.span("sql.optimizer"):
            stmt = optimize(stmt)
        with tracer.span("sql.planner"):
            plan = Planner(db.stats_for).plan(stmt)
        with tracer.span("sql.executor"):
            # What Database.execute_ast does after planning.
            Executor(db.table, {}, columnar=True, plan=plan,
                     scan_table=db.scan_table).execute(stmt)
    stages = rows = 0
    error = 0.0
    todo = [plan.root]
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        if node.engine is not None:
            stages += 1
            rows += node.engine == "row"
        if node.est_rows is not None and node.actual_rows is not None \
                and node.est_rows == node.est_rows:
            error += abs(node.est_rows - node.actual_rows) \
                / max(1.0, node.actual_rows)
            tracer.count("sql.planner", "estimated_stages", 1)
    tracer.count("sql.executor", "stages", stages)
    tracer.count("sql.executor", "row_stages", rows)
    tracer.count("sql.planner", "est_rows_error", error)


def scan_shares(tracer) -> dict[str, float]:
    def share(part: str, rest: str) -> float:
        a = tracer.count_total("tsdb.adapter", part)
        b = tracer.count_total("tsdb.adapter", rest)
        return a / (a + b) if a + b else 0.0
    total = tracer.count_total("tsdb.adapter", "series_total")
    stages = tracer.count_total("sql.executor", "stages")
    estimated = tracer.count_total("sql.planner", "estimated_stages")
    return {
        "chunks_scanned_share": share("chunks_scanned", "chunks_pruned"),
        "series_scanned_share":
            tracer.count_total("tsdb.adapter", "series_scanned") / total
            if total else 0.0,
        "fallback_ratio":
            tracer.count_total("sql.executor", "row_stages") / stages
            if stages else 0.0,
        "est_rows_error":
            tracer.count_total("sql.planner", "est_rows_error") / estimated
            if estimated else 0.0,
    }


def traced(state: State, seconds: float, tracer) -> dict:
    snapshot = state.store.snapshot()
    with tracer.span("setup"):
        with tracer.span("tsdb.adapter"):
            db = traced_database(snapshot, tracer)
            db.table("tsdb")              # first-table materialisation
            db.stats_for("tsdb")
    materialise_ms = 1000.0 * tracer.durations("tsdb.adapter")[0]
    untraced: list[float] = []
    traced_passes: list[float] = []
    passes = 0
    for passes in harness.ops_until(seconds, state.size["min_passes"]):
        total = 0.0
        for name, query in statements(state.next_pass, state.n_samples):
            if passes % 3:                # two plain passes per traced one
                total += harness.timed(state.server.query, query)[0]
                continue
            request = f"{state.next_pass}:{name}"
            with tracer.span("request", request=request) as root:
                state.server.query(query)
            span = tracer.spans[root]
            total += span["end"] - span["start"]
            replay_statement(tracer, state.store, db, query, request)
        (untraced if passes % 3 else traced_passes).append(total)
        state.next_pass += 1
    passes += 1
    # One pass = the ten statement classes, each at its median.
    by_class = {"group": lambda request: request.split(":", 1)[1]}
    out = harness.layer_ms(tracer.layer_medians("replay", **by_class))
    covered = sum(out[f"{layer}_ms"] for layer in ON_PATH)
    root_ms = 1000.0 * tracer.layer_medians("request", **by_class)["request"]
    out["serve.server_ms"] = root_ms - covered
    out["workloads_ms"] = 1000.0 * state.generation_s
    out.update(scan_shares(tracer))
    out.update(harness.cache_counters(state.server))
    out.update({
        "span_coverage": covered / root_ms,
        "trace_overhead": harness.median(traced_passes)
        / harness.median(untraced),
    })
    return {"attempted": 10 * passes, "failed": 0, "layers": out,
            "root_ms": root_ms,
            "diagnostics": {"adapter_materialise_ms": harness.metric(
                materialise_ms, "ms", 1)}}
