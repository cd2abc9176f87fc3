"""QueryServer across versions: an explain recomputes only what a write touched.

A new version's explain state refreshes the latest one built: families whose
member columns were not written are reused as objects, and a hypothesis
whose (X, Y, Z) families are all reused keeps its score.  None of that
may show in a result — every served Score Table must equal what a fresh
server computes cold at the same version, bit for bit.
"""

import gc
import struct
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.server as server_module
from repro.engine_exec.executor import HypothesisExecutor
from repro.scoring import get_scorer
from repro.serve import QueryServer
from repro.tsdb.model import SeriesId
from repro.tsdb.storage import TimeSeriesStore

N = 48
#: Families present from the start; ``late`` ends inside the horizon so
#: it can grow without moving the grid.
FAMILIES = ("target", "cause", "decoy_0", "decoy_1", "late")
GROUP_QUERY = ("SELECT metric_name, COUNT(*) AS n FROM tsdb "
               "GROUP BY metric_name ORDER BY metric_name")
LATE = SeriesId.make("late", {"host": "h0"})


def build_store(seed=0):
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore(n_shards=2)
    ts = np.arange(N, dtype=np.int64)
    cause = np.cumsum(rng.standard_normal(N))
    for host in ("h0", "h1"):
        tags = {"host": host}
        store.insert_array(SeriesId.make("cause", tags), ts,
                           cause + 0.1 * rng.standard_normal(N))
        store.insert_array(SeriesId.make("target", tags), ts,
                           2.0 * cause + 0.3 * rng.standard_normal(N))
        for d in range(2):
            store.insert_array(SeriesId.make(f"decoy_{d}", tags), ts,
                               rng.standard_normal(N))
    store.insert_array(LATE, ts[:N - 8], rng.standard_normal(N - 8))
    return store


def table_fields(table):
    """Everything a Score Table ranks by, floats as their IEEE bytes."""
    rows = [(r.rank, r.family, r.n_features, struct.pack("<d", r.score),
             struct.pack("<d", r.p_value), struct.pack("<d", r.p_bonferroni),
             r.significant_bh) for r in table.results]
    return (table.scorer_name, table.target, table.condition,
            table.n_hypotheses, rows)


def cold(served, backend, **request):
    """The same request on a fresh server pinned to the served snapshot."""
    with QueryServer(served.snapshot, backend=backend,
                     rank_workers=2) as fresh:
        return fresh.explain(**request)


@pytest.fixture
def scored(monkeypatch):
    """Names of the hypotheses each scoring call received (either backend)."""
    calls: list[list[str]] = []
    real = HypothesisExecutor.score

    def spy(self, hypotheses, *args, **kwargs):
        calls.append([h.name for h in hypotheses])
        return real(self, hypotheses, *args, **kwargs)

    monkeypatch.setattr(HypothesisExecutor, "score", spy)
    return calls


@pytest.fixture
def stacked(monkeypatch):
    """X matrices that reached ``score_batch`` in-process, per call."""
    calls: list[int] = []
    scorer_type = type(get_scorer("CorrMax"))
    real = scorer_type.score_batch

    def spy(self, xs, y, z=None):
        calls.append(len(xs))
        return real(self, xs, y, z)

    monkeypatch.setattr(scorer_type, "score_batch", spy)
    return calls


# ---------------------------------------------------------------------------
# Only what a write touched is scored
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", [None, "process"])
def test_only_touched_hypotheses_are_scored(backend, scored):
    store = build_store()
    request = dict(target="target", scorer="CorrMax")
    with QueryServer(store, backend=backend, rank_workers=2) as server:
        server.explain(**request)
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]

        store.insert(LATE, N - 8, 0.25)              # inside the horizon
        result = server.submit_explain(**request).result()
        assert scored[-1] == ["late"]
        assert table_fields(result.value) == \
            table_fields(cold(result, backend, **request))

        store.apply(SeriesId.make("decoy_1", {"host": "h1"}),
                    lambda ts, vs: vs * -3.0)
        result = server.submit_explain(**request).result()
        assert scored[-1] == ["decoy_1"]
        assert table_fields(result.value) == \
            table_fields(cold(result, backend, **request))

        # A write to Y changes every hypothesis.
        store.apply(SeriesId.make("target", {"host": "h0"}),
                    lambda ts, vs: vs + 1.0)
        result = server.submit_explain(**request).result()
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]
        assert table_fields(result.value) == \
            table_fields(cold(result, backend, **request))

        # Nothing written: a new scorer scores, a known one does not.
        calls = len(scored)
        server.explain("target", scorer="CorrMax", top_k=2)
        assert len(scored) == calls
        server.explain("target", scorer="L2")
        assert len(scored) == calls + 1


def test_versions_without_an_explain_keep_the_reuse_chain(scored):
    """SQL-only versions build no families; the next explain still
    refreshes the latest family set the server built."""
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        for k in range(4):                   # more versions than stay warm
            store.insert(LATE, N - 8 + k, float(k))
            server.sql(GROUP_QUERY)
        result = server.submit_explain("target", scorer="CorrMax").result()
        assert scored[-1] == ["late"]
        assert table_fields(result.value) == table_fields(
            cold(result, None, target="target", scorer="CorrMax"))


def test_replaced_families_are_released(monkeypatch):
    """Once its state retires, a family a write replaced is unreachable:
    neither the latest generation nor its inherited scores keep it."""
    built = []
    real = server_module.families_from_store

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(server_module, "families_from_store", spy)
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        first = weakref.ref(built[0]["late"])
        kept = weakref.ref(built[0]["cause"])
        built.clear()
        for k in range(4):
            store.insert(LATE, N - 8 + k, float(k))
            server.explain("target", scorer="CorrMax")
        built.clear()
        gc.collect()
        assert first() is None
        assert kept() is not None               # untouched: still in use


def test_only_touched_x_matrices_reach_score_batch(stacked):
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        assert sum(stacked) == 4
        store.insert(LATE, N - 8, 0.25)
        server.explain("target", scorer="CorrMax")
        assert sum(stacked) == 5


def test_live_scorer_objects_are_never_reused(scored):
    store = build_store()
    scorer = get_scorer("CorrMax")
    with QueryServer(store) as server:
        first = server.explain("target", scorer=scorer)
        second = server.explain("target", scorer=scorer)
    assert [sorted(names) for names in scored] == \
        [["cause", "decoy_0", "decoy_1", "late"]] * 2
    assert table_fields(first) == table_fields(second)


def test_grid_move_rescores_everything(scored):
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        store.insert(LATE, N + 4, 0.25)              # beyond the horizon
        result = server.submit_explain("target", scorer="CorrMax").result()
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]
        assert table_fields(result.value) == table_fields(
            cold(result, None, target="target", scorer="CorrMax"))


# ---------------------------------------------------------------------------
# A family build never stalls other requests
# ---------------------------------------------------------------------------

def test_family_build_does_not_stall_other_requests(monkeypatch):
    store = build_store()
    started, release = threading.Event(), threading.Event()
    real = server_module.families_from_store

    def blocked(*args, **kwargs):
        started.set()
        release.wait(30)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_module, "families_from_store", blocked)
    with QueryServer(store, n_workers=4) as server:
        try:
            explain = server.submit_explain("target", scorer="CorrMax")
            assert started.wait(10)
            same = server.submit_sql(GROUP_QUERY).result(timeout=5)
            store.insert(SeriesId.make("bump"), 0, 1.0)
            newer = server.submit_sql(GROUP_QUERY).result(timeout=5)
            assert newer.version > same.version
            assert not explain.done()
        finally:
            release.set()
        assert explain.result(timeout=30).value.n_hypotheses == 4


# ---------------------------------------------------------------------------
# Random interleavings of writes and requests equal a cold evaluation
# ---------------------------------------------------------------------------

SERIES = [SeriesId.make(name, {"host": host})
          for name in FAMILIES[:4] for host in ("h0", "h1")] + [LATE]

WRITES = st.one_of(
    st.tuples(st.just("append"), st.integers(0, len(SERIES) - 1),
              st.booleans()),
    st.tuples(st.just("join"), st.sampled_from(FAMILIES)),
    st.tuples(st.just("new_family"), st.integers(0, 2)),
    st.tuples(st.just("apply"), st.integers(0, len(SERIES) - 1),
              st.floats(-2.0, 2.0, allow_nan=False)),
)
REQUESTS = st.tuples(
    st.just("explain"), st.sampled_from(["CorrMax", "L2"]),
    st.sampled_from(["plain", "conditioned", "search"]))
STEPS = st.lists(st.one_of(WRITES, REQUESTS), min_size=1, max_size=8)
SHAPES = {
    "plain": {},
    "conditioned": {"condition": "decoy_0"},
    "search": {"search": ("cause", "late", "decoy_1")},
}


class Interleaving:
    """A store plus the bookkeeping that keeps every write valid."""

    def __init__(self):
        self.store = build_store()
        self.last = {s: int(self.store.get(s).max_timestamp) for s in SERIES}
        self.joined = 0

    @property
    def horizon(self) -> int:
        return self.store.time_range()[1]

    def write(self, step) -> None:
        kind = step[0]
        if kind == "append":
            series, beyond = SERIES[step[1]], step[2]
            stamp = self.horizon + 1 if beyond else self.last[series] + 1
            self.store.insert(series, stamp, float(stamp % 7))
            self.last[series] = stamp
        elif kind == "join":
            self.joined += 1
            series = SeriesId.make(step[1], {"host": f"j{self.joined}"})
            stamps = np.arange(self.horizon + 1, dtype=np.int64)
            self.store.insert_array(series, stamps,
                                    np.sin(stamps * 0.3 + self.joined))
        elif kind == "new_family":
            series = SeriesId.make(f"extra_{step[1]}")
            if series not in self.store:
                stamps = np.arange(self.horizon + 1, dtype=np.int64)
                self.store.insert_array(series, stamps, np.cos(stamps * 0.2))
        else:
            self.store.apply(SERIES[step[1]],
                             lambda ts, vs, k=step[2]: vs * k + 0.5)


def run_interleaving(steps, backend) -> None:
    state = Interleaving()
    with QueryServer(state.store, backend=backend,
                     rank_workers=2) as server:
        for step in list(steps) + [("explain", "CorrMax", "plain")]:
            if step[0] != "explain":
                state.write(step)
                continue
            request = dict(target="target", scorer=step[1],
                           **SHAPES[step[2]])
            served = server.submit_explain(**request).result()
            assert table_fields(served.value) == \
                table_fields(cold(served, backend, **request))


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_interleavings_equal_cold_evaluation(steps):
    run_interleaving(steps, backend=None)


@settings(max_examples=5, deadline=None)
@given(steps=STEPS)
def test_interleavings_equal_cold_evaluation_process_backend(steps):
    run_interleaving(steps, backend="process")


def test_concurrent_explains_under_writes_equal_cold_evaluation():
    """Eight request threads share each version's scores while a writer
    moves the store on; a lost or crossed score update shows as a served
    table that differs from its snapshot's cold evaluation."""
    store = build_store()
    shapes = [dict(target="target", scorer=scorer, **SHAPES[shape])
              for scorer in ("CorrMax", "L2") for shape in SHAPES]
    stop = threading.Event()

    def writer():
        # Writes until every request is answered, so the requests are
        # spread over many versions however the threads are scheduled.
        i = 0
        while not stop.wait(0.0002):
            i += 1
            if i % 4 == 0:
                store.insert(LATE, int(store.get(LATE).max_timestamp) + 1,
                             float(i % 5))
            else:
                store.apply(SERIES[i % len(SERIES)],
                            lambda ts, vs: vs * 0.5 + 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryServer(store, n_workers=8) as server:
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                futures = [(shapes[i % len(shapes)],
                            server.submit_explain(**shapes[i % len(shapes)]))
                           for i in range(96)]
                served = [(request, future.result(timeout=60))
                          for request, future in futures]
            finally:
                stop.set()
                thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len({result.version for _, result in served}) > 1
    for request, result in served:
        assert table_fields(result.value) == \
            table_fields(cold(result, None, **request))
