"""QueryServer: pinned-version serving, caching, invalidation, staleness."""

import os
import signal
import struct
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.engine import ExplainItSession
from repro.core.families import families_from_store
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.scoring import get_scorer
from repro.serve import QueryServer
from repro.sql import Database
from repro.tsdb.adapter import register_store
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore
from tests.engine_exec.test_shm import shm_mappings
from tests.scoring.reference import assert_matches_oracle, reference_rank

N = 96
GROUP_QUERY = ("SELECT metric_name, COUNT(*) AS n, AVG(value) AS v "
               "FROM tsdb GROUP BY metric_name ORDER BY metric_name")


def fill(store, seed=0, n=N, hosts=("h0", "h1")):
    """Family-structured data: a cause driving a target, plus decoys."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64)
    cause = np.cumsum(rng.standard_normal(n))
    for name in hosts:
        host = {"host": name}
        store.insert_array(SeriesId.make("cause_metric", host), ts,
                           cause + 0.1 * rng.standard_normal(n))
        store.insert_array(SeriesId.make("target_metric", host), ts,
                           2.0 * cause + 0.2 * rng.standard_normal(n))
        for d in range(3):
            store.insert_array(SeriesId.make(f"decoy_{d}", host), ts,
                               rng.standard_normal(n))
    return store


def bitwise_rows(table):
    """Rows with floats replaced by their IEEE bytes (NaN/-0.0 exact)."""
    return [tuple(struct.pack("<d", c) if isinstance(c, float) else c
                  for c in row)
            for row in table.rows]


def assert_bitwise_equal(a, b):
    assert a.columns == b.columns
    assert bitwise_rows(a) == bitwise_rows(b)


@pytest.fixture()
def store():
    return fill(TimeSeriesStore(n_shards=4))


@pytest.fixture()
def server(store):
    with QueryServer(store, n_workers=4) as srv:
        yield srv


# ---------------------------------------------------------------------------
# SQL serving + cache behaviour
# ---------------------------------------------------------------------------

def test_sql_matches_direct_database(server, store):
    direct = Database()
    register_store(direct, store.snapshot())
    assert_bitwise_equal(server.sql(GROUP_QUERY), direct.sql(GROUP_QUERY))


def test_repeat_query_is_a_cache_hit_returning_same_object(server):
    first = server.query(GROUP_QUERY)
    second = server.query(GROUP_QUERY)
    assert not first.cached and second.cached
    assert second.value is first.value
    assert second.version == first.version


def test_formatting_variants_share_one_cache_entry(server):
    server.sql(GROUP_QUERY)
    variant = ("select metric_name,  count(*) AS n, avg(value) AS v  "
               "from tsdb -- dashboard\n group by metric_name "
               "order by metric_name")
    assert server.query(variant).cached
    assert len(server.cache) == 1


def test_cached_result_bitwise_equal_to_fresh_server(store):
    with QueryServer(store) as warm:
        warm.sql(GROUP_QUERY)
        cached = warm.query(GROUP_QUERY)
    with QueryServer(store) as cold:
        fresh = cold.query(GROUP_QUERY)
    assert cached.cached and not fresh.cached
    assert_bitwise_equal(cached.value, fresh.value)


def test_concurrent_submissions_agree(server):
    futures = [server.submit_sql(GROUP_QUERY) for _ in range(16)]
    results = [f.result() for f in futures]
    for result in results[1:]:
        assert_bitwise_equal(result.value, results[0].value)
    assert any(r.cached for r in results[1:])


def test_closed_server_rejects_requests(store):
    server = QueryServer(store)
    server.close()
    with pytest.raises(RuntimeError):
        server.sql("SELECT 1")


# ---------------------------------------------------------------------------
# Invalidation: every version-bump path drops cached results
# ---------------------------------------------------------------------------

def _merge_store():
    other = TimeSeriesStore()
    other.insert_array(SeriesId.make("merged_metric"),
                       np.arange(4, dtype=np.int64), np.ones(4))
    return other


MUTATIONS = {
    "insert": lambda s: s.insert(SeriesId.make("cause_metric",
                                               {"host": "h0"}), N, 1.0),
    "insert_array": lambda s: s.insert_array(
        SeriesId.make("fresh_metric"), np.arange(8, dtype=np.int64),
        np.zeros(8)),
    "apply": lambda s: s.apply(SeriesId.make("cause_metric", {"host": "h0"}),
                               lambda ts, vs: vs + 1.0),
    "merge": lambda s: s.merge(_merge_store()),
}


def session_view(session):
    """What a session ranks and the exact matrices it ranked from."""
    table = session.explain(scorer="CorrMax")
    return (rank_fields(table),
            {family.name: (family.matrix.tobytes(), family.grid.tobytes())
             for family in session.families()})


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_mutation_invalidates_cached_results(server, store, mutate):
    session = ExplainItSession(store)
    session.set_target("target_metric")
    session_view(session)
    before = server.query(GROUP_QUERY)
    mutate(store)
    after = server.query(GROUP_QUERY)
    assert not after.cached
    assert after.version > before.version
    assert after.version == store.version
    # The re-query observed the new version, which dropped the
    # superseded entry: lookup is the one invalidation trigger.
    assert server.cache.stats.invalidations >= 1
    # A long-lived session is one more consumer of store-derived state:
    # its family matrices follow the mutation like a fresh session's.
    fresh = ExplainItSession(store)
    fresh.set_target("target_metric")
    assert session_view(session) == session_view(fresh)


def test_wal_replay_invalidates_cached_results(tmp_path):
    source = fill(TimeSeriesStore(
        n_shards=2, wal=tmp_path / "source.wal"))
    source.flush()
    # Disjoint hosts: replayed series append cleanly instead of landing
    # behind the target's existing timestamps.
    target = fill(TimeSeriesStore(n_shards=2), seed=1,
                  hosts=("t0", "t1"))
    with QueryServer(target) as server:
        before = server.query(GROUP_QUERY)
        replayed = source.wal.replay_into(target)
        assert replayed > 0
        after = server.query(GROUP_QUERY)
        assert not after.cached
        assert after.version > before.version
        assert server.cache.stats.invalidations >= 1
    source.close()


def test_plain_store_sweeps_lazily_on_next_request():
    store = fill(TimeSeriesStore())
    with QueryServer(store) as server:
        first = server.query(GROUP_QUERY)
        store.insert(SeriesId.make("late_metric"), 0, 1.0)
        second = server.query(GROUP_QUERY)
        assert not second.cached
        assert second.version > first.version
        # The sweep happened when the next request observed the new
        # version — the same single trigger as for the sharded store.
        assert server.cache.stats.invalidations >= 1


def test_stale_cache_entry_never_served_after_version_moves(server, store):
    v0 = server.query(GROUP_QUERY).version
    store.insert(SeriesId.make("bump_metric"), 0, 1.0)
    for _ in range(5):
        result = server.query(GROUP_QUERY)
        assert result.version > v0


# ---------------------------------------------------------------------------
# Staleness + parity under concurrent ingest (the acceptance regression)
# ---------------------------------------------------------------------------

#: One dashboard refresh: the grouped aggregate, a zone-map-pruned range
#: scan and a tag cut (hot, repeated every cycle) plus one range scan
#: nobody asked before — submitted as a burst, so pushed-down scans and
#: the scan cache are exercised under ingest too.
HOT_PANELS = (
    GROUP_QUERY,
    "SELECT metric_name, MIN(value) AS lo, MAX(value) AS hi FROM tsdb "
    "WHERE timestamp BETWEEN 16 AND 64 GROUP BY metric_name "
    "ORDER BY metric_name",
    "SELECT metric_name, COUNT(*) AS n FROM tsdb "
    "WHERE tag['host'] = 'h1' GROUP BY metric_name ORDER BY metric_name",
)


def cold_query(i):
    return ("SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb "
            f"WHERE timestamp BETWEEN {7 * i} AND {7 * i + 32}")


def test_no_stale_results_under_four_writer_ingest(store):
    stop = threading.Event()
    results, errors = [], []

    def writer(wid):
        # Append batches to one fixed series per writer (the store grows
        # in points, not series), throttled so every reader request sees
        # fresh versions without the store outgrowing the test.
        series = SeriesId.make("ingest_rate", {"host": f"w{wid}"})
        i = 0
        while not stop.is_set():
            ts = np.arange(i * 16, (i + 1) * 16, dtype=np.int64)
            store.insert_array(series, ts, np.full(16, float(i)))
            i += 1
            time.sleep(0.002)

    with QueryServer(store, n_workers=4) as server:
        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        try:
            for cycle in range(25):
                floor = store.version
                futures = [(query, server.submit_sql(query))
                           for query in HOT_PANELS + (cold_query(cycle),)]
                for query, future in futures:
                    result = future.result(timeout=60)
                    # Pinned at request start: at least as new as any
                    # version observed before submission — a result
                    # cached at some superseded version can never come
                    # back.
                    if result.version < floor:
                        errors.append((query, result.version, floor))
                    results.append((query, result))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        versions = sorted({r.version for _, r in results})
        # Quiesced: the next request serves exactly the final version...
        final = server.query(GROUP_QUERY)
        assert final.version == store.version
        # ...and every mid-ingest result re-verifies bitwise against a
        # fresh computation on its own pinned snapshot.
        for query, result in results[::7] + results[-1:]:
            check = Database()
            register_store(check, result.snapshot)
            assert result.snapshot.version == result.version
            assert_bitwise_equal(result.value, check.sql(query))
        assert versions[0] <= versions[-1]


# ---------------------------------------------------------------------------
# explain / drill_down serving
# ---------------------------------------------------------------------------

def rank_fields(table):
    return [(r.rank, r.family, struct.pack("<d", r.score))
            for r in table.results]


def test_explain_matches_direct_ranking(server, store):
    served = server.explain("target_metric", scorer="L2-P50")
    families = families_from_store(store.snapshot(), group_by="name")
    hypotheses = generate_hypotheses(families, "target_metric")
    direct = rank_families(hypotheses, scorer="L2-P50")
    assert rank_fields(served) == rank_fields(direct)
    assert_matches_oracle(served, reference_rank(hypotheses, "L2-P50"))


def test_repeat_explain_hits_cache(server):
    first = server.submit_explain("target_metric").result()
    second = server.submit_explain("target_metric").result()
    assert not first.cached and second.cached
    assert second.value is first.value


def test_drill_down_restricts_search_space(server):
    table = server.drill_down("target_metric",
                              ["cause_metric", "decoy_0"])
    assert {r.family for r in table.results} <= {"cause_metric", "decoy_0"}
    assert server.stats()["requests"]["drill_down"] == 1


def test_explain_cache_invalidated_by_ingest(server, store):
    first = server.submit_explain("target_metric").result()
    store.insert_array(SeriesId.make("target_metric", {"host": "h0"}),
                       np.arange(N, N + 8, dtype=np.int64), np.ones(8))
    second = server.submit_explain("target_metric").result()
    assert not second.cached
    assert second.version > first.version


def test_process_backend_publishes_matrices_once_per_version(store):
    with QueryServer(store, backend="process", rank_workers=2) as server:
        a = server.explain("target_metric", scorer="L2-P50")
        segments_after_first = server.stats()["shm_segments"]
        assert segments_after_first > 0
        # A different scorer misses the result cache but reuses the
        # already-published matrices: no new segments appear.
        b = server.explain("target_metric", scorer="L2")
        assert server.stats()["shm_segments"] == segments_after_first
        assert [r.family for r in a.results]  # both produced rankings
        assert [r.family for r in b.results]
        # Bitwise parity against the same backend run standalone, and
        # the oracle's parity contract against the sequential oracle.
        hypotheses = generate_hypotheses(
            families_from_store(store.snapshot(), group_by="name"),
            "target_metric")
        direct = rank_families(hypotheses, scorer="L2-P50",
                               backend="process", n_workers=2)
        assert rank_fields(a) == rank_fields(direct)
        assert_matches_oracle(a, reference_rank(hypotheses, "L2-P50"))


def test_single_rank_worker_still_uses_the_shared_pool(store):
    """One rank worker is a pool of one, not a different code path."""
    with QueryServer(store, backend="process", rank_workers=1) as server:
        table = server.explain("target_metric", scorer="CorrMax")
        assert server.stats()["shm_segments"] > 0
        with QueryServer(store) as in_process:
            assert rank_fields(table) == rank_fields(
                in_process.explain("target_metric", scorer="CorrMax"))


def test_live_scorer_requests_leave_no_segments_mapped_in_the_worker(store):
    """A live Scorer object is not cacheable, so each request publishes
    run-scoped segments and unlinks them when done; the long-lived rank
    worker must not keep mapping them."""
    scorer = get_scorer("CorrMax")
    with QueryServer(store, backend="process", rank_workers=1) as server:
        worker = server._process_pool().submit(os.getpid).result()
        idle = shm_mappings(worker)
        for _ in range(4):
            server.explain("target_metric", scorer=scorer)
            assert shm_mappings(worker) == idle
        assert server.stats()["shm_segments"] == 0


def test_published_segments_stay_with_the_server_not_the_worker(store):
    """Per-version segments outlive requests in the server; an idle rank
    worker maps none of them, at the current version or a retired one."""
    with QueryServer(store, backend="process", rank_workers=1) as server:
        worker = server._process_pool().submit(os.getpid).result()
        idle = shm_mappings(worker)
        for i in range(3):
            server.explain("target_metric", scorer="CorrMax")
            assert server.stats()["shm_segments"] > 0
            assert shm_mappings(worker) == idle
            store.insert(SeriesId.make("bump_metric"), i, 1.0)


def test_a_dead_rank_worker_fails_one_request_then_is_replaced(store):
    with QueryServer(store, backend="process", rank_workers=1) as server, \
            QueryServer(store) as in_process:
        server.explain("target_metric", scorer="CorrMax")
        published = server.stats()["shm_segments"]
        worker = server._process_pool().submit(os.getpid).result()
        os.kill(worker, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            server.explain("target_metric", scorer="L2")
        # The next request forks a fresh pool, which scores from the
        # segments the version state published before the kill.
        table = server.explain("target_metric", scorer="L2")
        assert server.stats()["shm_segments"] == published
        assert rank_fields(table) == rank_fields(
            in_process.explain("target_metric", scorer="L2"))


def test_old_version_states_retire(store):
    with QueryServer(store) as server:
        server.sql(GROUP_QUERY)
        store.insert(SeriesId.make("bump_metric"), 0, 1.0)
        server.sql(GROUP_QUERY)
        store.insert(SeriesId.make("bump_metric"), 1, 2.0)
        server.sql(GROUP_QUERY)
        warm = server.stats()["warm_versions"]
        assert warm == [store.version - 1, store.version]


class LatePin:
    """The store, except that the next ``snapshot()`` is one cut earlier —
    a request that read the store just before ingest moved it on."""

    def __init__(self, store):
        self._store = store
        self.late = None

    def snapshot(self):
        late, self.late = self.late, None
        return late or self._store.snapshot()

    def __getattr__(self, name):
        return getattr(self._store, name)


def test_late_pin_at_a_retired_version_keeps_current_results_hot(store):
    proxy = LatePin(store)
    with QueryServer(proxy) as server:
        old = store.snapshot()
        for i in range(2):
            store.insert(SeriesId.make("bump_metric"), i, 1.0)
            server.query(GROUP_QUERY)
        proxy.late = old
        late = server.query(GROUP_QUERY)
        assert late.version == old.version and not late.cached
        # The straggler recreated a state for its long-retired version;
        # that must not cost the current version its cached results.
        hot = server.query(GROUP_QUERY)
        assert hot.cached and hot.version == store.version
        assert server.stats()["warm_versions"][-1] == store.version


def test_request_counters_exact_under_concurrency(store):
    """Request bodies bump ``stats()["requests"]`` from pool threads; an
    unguarded ``+=`` is a read-modify-write that may drop counts (no
    CPython guarantee makes it atomic), so the bump takes a lock and N
    threads x M mixed requests must report exactly N*M."""
    n_threads, per_thread = 8, 60
    mix = [("sql", lambda s: s.submit_sql(GROUP_QUERY)),
           ("explain", lambda s: s.submit_explain("target_metric",
                                                  scorer="CorrMax")),
           ("drill_down", lambda s: s.submit_explain(
               "target_metric", scorer="CorrMax",
               search=["cause_metric", "decoy_0"], kind="drill_down"))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryServer(store, n_workers=16) as server:
            def client(offset):
                futures = [mix[(offset + i) % 3][1](server)
                           for i in range(per_thread)]
                for future in futures:
                    future.result(timeout=60)

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            requests = server.stats()["requests"]
    finally:
        sys.setswitchinterval(interval)
    assert sum(requests.values()) == n_threads * per_thread
    assert requests == {"sql": 160, "explain": 160, "drill_down": 160}


def test_stats_shape(server):
    server.sql(GROUP_QUERY)
    stats = server.stats()
    assert stats["requests"]["sql"] == 1
    assert stats["cache"]["misses"] >= 1
    assert stats["store_version"] == stats["warm_versions"][-1]
    assert stats["uptime_seconds"] >= 0.0
