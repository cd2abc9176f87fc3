"""Explains across versions recompute only what a write touched.

``QueryServer`` and ``ExplainItSession`` rank through one explain core. A
new version's explain state refreshes the latest one built: families whose
member columns were not written are reused as objects, and a hypothesis
whose (X, Y, Z) families are all reused keeps its score.  None of that
may show in a result — every served Score Table must equal what a fresh
server (or session) computes cold at the same version, bit for bit.
"""

import gc
import struct
import sys
import threading
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.explain as explain_module
import repro.core.families as families_module
import repro.core.ranking as ranking_module
import repro.scoring.base as scoring_base
import repro.serve.server as server_module
from repro.core.engine import ExplainItSession
from repro.core.families import families_from_store
from repro.scoring import get_scorer, list_scorers
from repro.scoring.base import Scorer
from repro.serve import QueryServer
from repro.tsdb.model import SeriesId
from repro.tsdb.query import ScanQuery
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
    store = TimeSeriesStore()
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
    """A whole Score Table, floats as their IEEE bytes: every row field
    but ``seconds`` (a measured time, which a cold run measures anew),
    ``all_scores`` and the table's metadata."""
    pack = struct.Struct("<d").pack
    rows = [(r.rank, r.family, r.n_features, pack(r.score),
             pack(r.p_value), pack(r.p_bonferroni), r.significant_bh)
            for r in table.results]
    scores = [(name, pack(score)) for name, score in table.all_scores.items()]
    return (table.scorer_name, table.target, table.condition,
            table.n_hypotheses, table.top_k, rows, scores)


class RoundedCorr(Scorer):
    """``CorrMax`` rounded to one decimal, NaN when a column of X is
    constant: served tables with exact ties and NaN scores."""

    name = "RoundedCorr"

    def score_batch(self, xs, y, z=None):
        scores = np.round(get_scorer("CorrMax").score_batch(xs, y, z), 1)
        scores[[bool((np.ptp(x, axis=0) == 0).any()) for x in xs]] = np.nan
        return scores


@contextmanager
def rounded_corr():
    """``RoundedCorr`` in the scorer registry, for the duration of the
    block."""
    scoring_base._REGISTRY["roundedcorr"] = RoundedCorr
    try:
        yield
    finally:
        del scoring_base._REGISTRY["roundedcorr"]


def cold(served, **request):
    """The same request on a fresh server pinned to the served snapshot."""
    with QueryServer(served.snapshot) as fresh:
        return fresh.explain(**request)


def session_explain(session, target, scorer, condition=None, search=None):
    """``request`` (as :meth:`QueryServer.explain` takes it) through an
    ``ExplainItSession``."""
    session.set_target(target)
    session.set_condition(condition)
    return session.explain(scorer=scorer, search=search)


def cold_session(view, **request):
    """The same request on a fresh session over a frozen ``view``."""
    return session_explain(ExplainItSession(view), **request)


@pytest.fixture
def scored(monkeypatch):
    """Names of the hypotheses each scoring call received, from the
    explain core's carried answers and from the plain ``rank_families``
    call a live scorer or family object takes."""
    calls: list[list[str]] = []
    real = explain_module.execute_batches

    def spy(hypotheses, *args, **kwargs):
        calls.append([h.name for h in hypotheses])
        return real(hypotheses, *args, **kwargs)

    monkeypatch.setattr(explain_module, "execute_batches", spy)
    monkeypatch.setattr(ranking_module, "execute_batches", spy)
    return calls


@pytest.fixture
def stacked(monkeypatch):
    """X matrices that reached ``score_prepared`` in-process, per call."""
    calls: list[int] = []
    scorer_type = type(get_scorer("CorrMax"))
    real = scorer_type.score_prepared

    def spy(self, xs, target):
        calls.append(len(xs))
        return real(self, xs, target)

    monkeypatch.setattr(scorer_type, "score_prepared", spy)
    return calls


# ---------------------------------------------------------------------------
# Only what a write touched is scored
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scorer", list_scorers())
def test_only_touched_hypotheses_are_scored(scorer, scored):
    store = build_store()
    request = dict(target="target", scorer=scorer)
    with QueryServer(store) as server:
        server.explain(**request)
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]

        store.insert(LATE, N - 8, 0.25)              # inside the horizon
        result = server.submit_explain(**request).result()
        assert scored[-1] == ["late"]
        assert table_fields(result.value) == \
            table_fields(cold(result, **request))

        store.apply(SeriesId.make("decoy_1", {"host": "h1"}),
                    lambda ts, vs: vs * -3.0)
        result = server.submit_explain(**request).result()
        assert scored[-1] == ["decoy_1"]
        assert table_fields(result.value) == \
            table_fields(cold(result, **request))

        # A write to Y changes every hypothesis.
        store.apply(SeriesId.make("target", {"host": "h0"}),
                    lambda ts, vs: vs + 1.0)
        result = server.submit_explain(**request).result()
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]
        assert table_fields(result.value) == \
            table_fields(cold(result, **request))

        # Nothing written: a new scorer scores, a known one does not.
        calls = len(scored)
        server.explain("target", scorer=scorer, top_k=2)
        assert len(scored) == calls
        other = "L2" if scorer == "corrmax" else "CorrMax"
        server.explain("target", scorer=other)
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
            cold(result, target="target", scorer="CorrMax"))


def test_replaced_families_are_released(monkeypatch):
    """Once its state is dropped, a family a write replaced is unreachable:
    neither the latest generation nor its inherited scores keep it."""
    built = []
    real = explain_module.families_from_store

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(explain_module, "families_from_store", spy)
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


def test_only_touched_x_matrices_reach_score_prepared(stacked):
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


def test_session_scores_only_what_a_write_touched(scored):
    """The session ranks through the same core: after an in-horizon
    write it scores the hypotheses whose X was written, and a repeat at
    the same version scores nothing."""
    store = build_store()
    session = ExplainItSession(store)
    session.set_target("target")
    session.explain(scorer="CorrMax")
    assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]
    store.insert(LATE, N - 8, 0.25)                  # inside the horizon
    table = session.explain(scorer="CorrMax")
    assert scored[-1] == ["late"]
    calls = len(scored)
    assert table_fields(session.explain(scorer="CorrMax")) == \
        table_fields(table)
    assert len(scored) == calls
    assert table_fields(table) == table_fields(cold_session(
        store.read_view(), target="target", scorer="CorrMax"))


def test_grid_move_rescores_everything(scored):
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        store.insert(LATE, N + 4, 0.25)              # beyond the horizon
        result = server.submit_explain("target", scorer="CorrMax").result()
        assert sorted(scored[-1]) == ["cause", "decoy_0", "decoy_1", "late"]
        assert table_fields(result.value) == table_fields(
            cold(result, target="target", scorer="CorrMax"))


# ---------------------------------------------------------------------------
# The target's prepared (Y, Z) side is carried like its scores
# ---------------------------------------------------------------------------

@pytest.fixture
def prepared(monkeypatch):
    """Targets ``L2-P50`` prepared in-process (one entry per call)."""
    calls: list[tuple] = []
    scorer_type = type(get_scorer("L2-P50"))
    real = scorer_type.prepare

    def spy(self, y, z=None):
        calls.append(np.shape(y))
        return real(self, y, z)

    monkeypatch.setattr(scorer_type, "prepare", spy)
    return calls


def explain_prepares(server, prepared, scored, request, write):
    """Targets prepared and hypotheses scored by one explain after
    ``write()``; the served table must equal a cold evaluation."""
    del prepared[:], scored[:]
    write()
    result = server.submit_explain(**request).result()
    counts = len(prepared), sorted(scored[-1]) if scored else []
    assert table_fields(result.value) == table_fields(
        cold(result, **request))
    return counts


ALL_X = ["cause", "decoy_0", "decoy_1", "late"]


@pytest.mark.parametrize("shape", ["plain", "conditioned"])
def test_prepared_target_is_carried_until_y_or_z_is_written(prepared,
                                                            scored, shape):
    store = build_store()
    request = dict(target="target", scorer="L2-P50", **SHAPES[shape])
    x_names = [name for name in ALL_X if name != request.get("condition")]
    with QueryServer(store) as server:
        assert explain_prepares(server, prepared, scored, request,
                                lambda: None) == (1, x_names)
        # In the horizon, not Y or Z: one hypothesis, nothing prepared.
        assert explain_prepares(
            server, prepared, scored, request,
            lambda: store.insert(LATE, N - 8, 0.25)) == (0, ["late"])
        # Y written: one target, every hypothesis.
        assert explain_prepares(
            server, prepared, scored, request,
            lambda: store.apply(SeriesId.make("target", {"host": "h0"}),
                                lambda ts, vs: vs + 1.0)) == (1, x_names)
        if shape == "conditioned":          # Z written: the same
            assert explain_prepares(
                server, prepared, scored, request,
                lambda: store.apply(SeriesId.make("decoy_0", {"host": "h1"}),
                                    lambda ts, vs: vs * 2.0)
            ) == (1, x_names)
        # A grid move rebuilds every family: one target again.
        assert explain_prepares(
            server, prepared, scored, request,
            lambda: store.insert(LATE, N + 4, 0.25)) == (1, x_names)


def test_live_scorer_objects_bypass_the_prepared_targets(prepared):
    store = build_store()
    live = get_scorer("L2-P50")
    with QueryServer(store) as server:
        server.explain("target", scorer=live)
        assert len(prepared) == 1 and not server._core._latest.targets
        server.explain("target", scorer="L2-P50")
        assert len(prepared) == 2
        memo = dict(server._core._latest.targets)
        assert len(memo) == 1
        server.explain("target", scorer=live)       # reads nothing
        assert len(prepared) == 3
        assert server._core._latest.targets == memo       # fills nothing


def test_replaced_targets_are_dropped_from_the_generation(prepared):
    store = build_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="L2-P50")
        (key,) = server._core._latest.targets
        store.apply(SeriesId.make("target", {"host": "h1"}),
                    lambda ts, vs: vs - 1.0)
        server.explain("target", scorer="L2-P50")
        (newer,) = server._core._latest.targets
        assert newer[0] == key[0] and newer[1] is not key[1]


def test_each_scorer_is_instantiated_once(monkeypatch, scored):
    """A registered scorer is created on its first request and carried
    across versions with the targets it prepared: repeats that score
    nothing, in-horizon writes and a grid move create none again."""
    made = []
    real = explain_module.get_scorer

    def spy(name):
        made.append(name)
        return real(name)

    monkeypatch.setattr(explain_module, "get_scorer", spy)
    store = build_store()
    with QueryServer(store) as server:
        for top_k in (3, 4, 5):                      # carried, no stale rows
            server.explain("target", scorer="L2-P50", top_k=top_k)
        assert len(scored) == 1
        for k in range(3):                           # inside the horizon
            store.insert(LATE, N - 8 + k, float(k))
            server.explain("target", scorer="L2-P50")
        store.insert(LATE, N + 4, 0.25)              # beyond the horizon
        server.explain("target", scorer="L2-P50")
        assert made == ["l2-p50"]
        server.explain("target", scorer="CorrMax")
        server.explain("target", scorer="CORRMAX")
        assert made == ["l2-p50", "corrmax"]


# ---------------------------------------------------------------------------
# A refresh touches only the written families
# ---------------------------------------------------------------------------

@pytest.fixture
def refresh_work(monkeypatch):
    """Store scans and per-member alignments the family builds ran."""
    work = {"scans": 0, "aligned": 0}
    real_run, real_align = ScanQuery.run, families_module.align_to_grid

    def run(self, store):
        work["scans"] += 1
        return real_run(self, store)

    def align(*args):
        work["aligned"] += 1
        return real_align(*args)

    monkeypatch.setattr(ScanQuery, "run", run)
    monkeypatch.setattr(families_module, "align_to_grid", align)
    return work


LATE_H1 = SeriesId.make("late", {"host": "h1"})


def two_member_late_store():
    """``build_store`` plus a second ``late`` member, so the written
    family has more members than the one written."""
    store = build_store()
    store.insert_array(LATE_H1, np.arange(N - 10, dtype=np.int64),
                       np.cos(np.arange(N - 10.0)))
    return store


def explain_after(server, work, scored, write):
    """Counts of one explain's refresh after ``write()``."""
    work.update(scans=0, aligned=0)
    scored.clear()
    write()
    result = server.submit_explain("target", scorer="CorrMax").result()
    counts = work["scans"], work["aligned"], scored[-1] if scored else []
    assert table_fields(result.value) == table_fields(
        cold(result, target="target", scorer="CorrMax"))
    return counts


def test_in_horizon_write_aligns_only_the_written_family(refresh_work,
                                                         scored):
    store = two_member_late_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        for k in range(3):
            # one aligned family (both ``late`` members), no store scan,
            # one hypothesis scored
            assert explain_after(
                server, refresh_work, scored,
                lambda: store.insert_array(
                    LATE, np.asarray([N - 8 + k]), np.asarray([0.5]))
            ) == (0, 2, ["late"])


def test_apply_keeps_the_refresh_and_rescores_what_it_changed(refresh_work,
                                                              scored):
    """``apply`` keeps the series set and the span, so the families
    refresh; rewriting Y still rescores every hypothesis."""
    store = two_member_late_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        assert explain_after(
            server, refresh_work, scored,
            lambda: store.apply(LATE_H1, lambda ts, vs: vs * 2.0)
        ) == (0, 2, ["late"])
        scans, aligned, names = explain_after(
            server, refresh_work, scored,
            lambda: store.apply(SeriesId.make("target", {"host": "h1"}),
                                lambda ts, vs: vs - 1.0))
        assert (scans, aligned) == (0, 2)
        assert sorted(names) == ["cause", "decoy_0", "decoy_1", "late"]


@pytest.mark.parametrize("write", ["join", "beyond_horizon"])
def test_joins_and_grid_moves_take_the_full_build(refresh_work, scored,
                                                  write):
    store = two_member_late_store()
    with QueryServer(store) as server:
        server.explain("target", scorer="CorrMax")
        if write == "join":
            def do():
                store.insert_array(SeriesId.make("late", {"host": "h2"}),
                                   np.arange(N - 12, dtype=np.int64),
                                   np.ones(N - 12))
        else:
            def do():
                store.insert(LATE, N + 2, 0.5)
        scans, aligned, names = explain_after(server, refresh_work, scored,
                                              do)
        assert scans == 1
        if write == "join":                 # the grid stayed: reuse
            assert (aligned, names) == (3, ["late"])
        else:                               # the grid moved: everything
            assert aligned == len(store)
            assert sorted(names) == ["cause", "decoy_0", "decoy_1", "late"]


def family_fields(families):
    return [(f.name, f.members, f.grid.tobytes(), f.matrix.tobytes())
            for f in families]


@pytest.mark.parametrize("kwargs, refresh_scans", [
    ({}, 0),
    ({"name_filter": "late"}, 1),         # its grid ends inside the span
    ({"name_filter": "*a*"}, 0),
    ({"tag_filters": {"host": "h0"}}, 0),
    ({"tag_filters": {"host": "h1"}}, 0),
    ({"start": 4}, 1),
    ({"end": N - 3}, 1),
    ({"start": 0, "end": N + 20}, 0),
    ({"group_by": "tag:host", "end": N + 20}, 0),
])
def test_refreshed_families_equal_a_cold_build(kwargs, refresh_scans,
                                               refresh_work):
    """``families_from_store(previous=...)`` over a chain of writes of
    every kind equals a cold build at each version; the refresh without
    a scan is taken exactly when the series set and the span are the
    previous grid's."""
    store = two_member_late_store()
    previous = families_from_store(store, **kwargs)
    writes = [
        lambda: store.insert(LATE, N - 8, 0.25),
        lambda: store.insert_array(LATE_H1, np.asarray([N - 10, N - 9]),
                                   np.asarray([1.0, -1.0])),
        lambda: store.apply(SeriesId.make("cause", {"host": "h1"}),
                            lambda ts, vs: vs + 0.5),
        lambda: store.insert(SeriesId.make("decoy_0", {"host": "h0"}),
                             N - 1, 3.0),
    ]
    for write in writes:
        write()
        refresh_work["scans"] = 0
        refreshed = families_from_store(store, previous=previous, **kwargs)
        assert refresh_work["scans"] == refresh_scans
        assert family_fields(refreshed) == family_fields(
            families_from_store(store, **kwargs))
        previous = refreshed


# ---------------------------------------------------------------------------
# A family build never stalls other requests
# ---------------------------------------------------------------------------

def test_family_build_does_not_stall_other_requests(monkeypatch):
    store = build_store()
    started, release = threading.Event(), threading.Event()
    real = explain_module.families_from_store

    def blocked(*args, **kwargs):
        started.set()
        release.wait(30)
        return real(*args, **kwargs)

    monkeypatch.setattr(explain_module, "families_from_store", blocked)
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


def test_a_request_outlives_the_state_it_pinned(monkeypatch):
    """A request keeps the version state it pinned even after newer
    versions drop that state from the server: it answers as a cold run
    at its own version, and the state is not brought back."""
    store = build_store()
    started, release = threading.Event(), threading.Event()
    scorer_type = type(get_scorer("CorrMax"))
    real = scorer_type.score_prepared

    def gated(self, xs, target):
        started.set()
        release.wait(30)
        return real(self, xs, target)

    monkeypatch.setattr(scorer_type, "score_prepared", gated)
    request = dict(target="target", scorer="CorrMax")
    with QueryServer(store, n_workers=4) as server:
        try:
            explain = server.submit_explain(**request)
            assert started.wait(10)
            for i in range(server_module.KEEP_VERSIONS):
                store.insert(SeriesId.make("bump"), i, 1.0)
                server.submit_sql(GROUP_QUERY).result(timeout=5)
            assert not explain.done()
        finally:
            release.set()
        result = explain.result(timeout=30)
        assert result.version not in server.stats()["warm_versions"]
        assert table_fields(result.value) == \
            table_fields(cold(result, **request))
        latest = server.submit_explain(**request).result(timeout=30)
        assert latest.version == store.version
        assert result.version not in server.stats()["warm_versions"]


# ---------------------------------------------------------------------------
# NaN scores and exact ties are patched like a cold ranking
# ---------------------------------------------------------------------------

def test_nan_scores_and_exact_ties_equal_cold_evaluation(scored):
    store = build_store()
    stamps = np.arange(N, dtype=np.int64)
    for k in range(3):          # identical families: exact score ties
        store.insert_array(SeriesId.make(f"twin_{k}"), stamps,
                           np.sin(stamps * 0.4))
    request = dict(target="target", scorer="RoundedCorr")
    writes = [
        lambda: store.apply(SeriesId.make("decoy_0", {"host": "h1"}),
                            lambda ts, vs: vs * 0.0),            # NaN
        lambda: store.apply(SeriesId.make("twin_1"),
                            lambda ts, vs: vs * 1.0 + 0.0),      # a tie
        lambda: store.insert(LATE, N - 8, 0.25),
        lambda: store.apply(SeriesId.make("decoy_0", {"host": "h1"}),
                            lambda ts, vs: ts * 1.0),            # NaN gone
        lambda: store.apply(SeriesId.make("twin_0"),
                            lambda ts, vs: vs * 0.0),            # tie to NaN
    ]
    with rounded_corr(), QueryServer(store) as server:
        server.explain(**request)
        seen_nan = seen_tie = False
        for write in writes:
            write()
            result = server.submit_explain(**request).result()
            assert len(scored[-1]) == 1             # patched, not re-ranked
            assert table_fields(result.value) == \
                table_fields(cold(result, **request))
            scores = [row.score for row in result.value.results]
            seen_nan |= any(np.isnan(scores))
            real = [x for x in scores if not np.isnan(x)]
            seen_tie |= len(set(real)) < len(real)
        assert seen_nan and seen_tie


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
    st.tuples(st.just("beat"), st.integers(0, len(SERIES) - 1),
              st.integers(1, 4)),
)
REQUESTS = st.tuples(
    st.just("explain"),
    st.sampled_from(["CorrMax", "L2", "L2-P50", "RoundedCorr"]),
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
        elif kind == "beat":
            # One-point appends that stay inside the horizon (a series
            # already at the horizon repeats its last timestamp).
            series = SERIES[step[1]]
            for _ in range(step[2]):
                stamp = min(self.last[series] + 1, self.horizon)
                self.store.insert_array(series, np.asarray([stamp]),
                                        np.asarray([float(stamp % 5)]))
                self.last[series] = stamp
        elif kind == "new_family":
            series = SeriesId.make(f"extra_{step[1]}")
            if series not in self.store:
                stamps = np.arange(self.horizon + 1, dtype=np.int64)
                self.store.insert_array(series, stamps, np.cos(stamps * 0.2))
        else:
            self.store.apply(SERIES[step[1]],
                             lambda ts, vs, k=step[2]: vs * k + 0.5)


def run_interleaving(steps) -> None:
    """Each request is served by a server and by a session over the same
    store; each table must equal its cold counterpart's."""
    state = Interleaving()
    session = ExplainItSession(state.store)
    with rounded_corr(), QueryServer(state.store) as server:
        for step in list(steps) + [("explain", "CorrMax", "plain")]:
            if step[0] != "explain":
                state.write(step)
                continue
            request = dict(target="target", scorer=step[1],
                           **SHAPES[step[2]])
            served = server.submit_explain(**request).result()
            assert table_fields(served.value) == \
                table_fields(cold(served, **request))
            table = session_explain(session, **request)
            assert table_fields(table) == table_fields(
                cold_session(state.store.read_view(), **request))


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_interleavings_equal_cold_evaluation(steps):
    run_interleaving(steps)


def test_concurrent_explains_under_writes_equal_cold_evaluation():
    """Eight request threads share each version's scores while a writer
    moves the store on; a lost or crossed score update shows as a served
    table that differs from its snapshot's cold evaluation."""
    store = build_store()
    shapes = [dict(target="target", scorer=scorer, **SHAPES[shape])
              for scorer in ("CorrMax", "L2", "RoundedCorr")
              for shape in SHAPES]
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
        with rounded_corr(), QueryServer(store, n_workers=8) as server:
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
    with rounded_corr():
        for request, result in served:
            assert table_fields(result.value) == \
                table_fields(cold(result, **request))
