"""The explain core on its own: generations, carried answers, and rank.

:class:`~repro.core.explain.ExplainCore` is the one rank step of both the
session and the server.  Whatever it carries across versions, each table
it returns must be the table a plain
:func:`~repro.core.ranking.rank_families` call builds over a cold family
set at the same version, bit for bit.
"""

import itertools
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.core.explain as explain_module
import repro.core.ranking as ranking_module
from repro.core.autoselect import AutoScorer
from repro.core.engine import ExplainItSession
from repro.core.explain import (
    ExplainCore,
    _PreparedTargets,
    _rebuilt,
    _refreshed,
    shareable,
)
from repro.core.families import FamilyError, FeatureFamily, families_from_store
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.scoring import get_scorer
from repro.scoring.base import ScoringError
from repro.scoring.joint import L2Scorer
from repro.scoring.projection import ProjectedL2Scorer
from repro.scoring.univariate import CorrMaxScorer
from repro.tsdb import SeriesId, TimeSeriesStore

N = 48
#: Every registry scorer the package itself defines.
SCORERS = ("CorrMax", "CorrMean", "L1", "L2", "L2-lag2", "L2-P50",
           "L2-P500", "L2-PCA50", "Auto")
LATE = SeriesId.make("late", {"host": "h0"})
CAUSE = SeriesId.make("cause", {"host": "h1"})
TARGET = SeriesId.make("target", {"host": "h0"})
CANDIDATES = ["cause", "decoy_0", "decoy_1", "late"]


def build_store(seed=0):
    """Two hosts of ``target`` driven by ``cause``, two decoys, and
    ``late``, which ends inside the horizon so it can grow without
    moving the grid."""
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
    """A Score Table, floats as their IEEE bytes, without measured times."""
    pack = struct.Struct("<d").pack
    rows = [(r.rank, r.family, r.n_features, pack(r.score),
             pack(r.p_value), pack(r.p_bonferroni), r.significant_bh)
            for r in table.results]
    scores = [(name, pack(score)) for name, score in table.all_scores.items()]
    return (table.scorer_name, table.target, table.condition,
            table.n_hypotheses, table.top_k, rows, scores)


def cold(view, target="target", scorer="CorrMax", condition=None,
         search=None, exclude=(), top_k=10, start=None, end=None):
    """The same request as a plain ``rank_families`` call over a family
    set built afresh from ``view``."""
    families = families_from_store(view, start=start, end=end)
    return rank_families(generate_hypotheses(
        families, target, condition=condition, search=search,
        exclude=exclude), scorer=get_scorer(scorer), top_k=top_k)


def rank(core, view, target="target", scorer="CorrMax", condition=None,
         search=None, exclude=(), top_k=10, start=None, end=None):
    return core.rank(core.generation(view, start, end), target, scorer,
                     condition, search, exclude, top_k)


@pytest.fixture
def scored(monkeypatch):
    """Names of the hypotheses each scoring call received, on the core's
    path and on the plain ``rank_families`` path."""
    calls: list[list[str]] = []
    real = explain_module.execute_batches

    def spy(hypotheses, *args, **kwargs):
        calls.append([h.name for h in hypotheses])
        return real(hypotheses, *args, **kwargs)

    monkeypatch.setattr(explain_module, "execute_batches", spy)
    monkeypatch.setattr(ranking_module, "execute_batches", spy)
    return calls


class TestGeneration:
    def test_same_version_and_range_is_the_same_generation(self):
        store = build_store()
        core = ExplainCore()
        view = store.read_view()
        assert core.generation(view) is core.generation(view)

    def test_a_write_refreshes_only_the_written_family(self):
        store = build_store()
        core = ExplainCore()
        older = core.generation(store.read_view())
        store.apply(CAUSE, lambda ts, vs: vs + 1.0)
        newer = core.generation(store.read_view())
        assert newer is not older and core._latest is newer
        assert newer.families.origin.realigned == ("cause",)
        for name in ("target", "decoy_0", "decoy_1", "late"):
            assert newer.families[name] is older.families[name]
        assert newer.families["cause"] is not older.families["cause"]

    def test_a_new_range_builds_a_new_generation(self):
        store = build_store()
        core = ExplainCore()
        view = store.read_view()
        whole = core.generation(view)
        part = core.generation(view, 0, N // 2)
        assert part is not whole and part.key == (view.version, 0, N // 2)
        assert part.families["target"].n_samples == N // 2

    def test_clear_drops_every_carried_family(self):
        store = build_store()
        core = ExplainCore()
        view = store.read_view()
        first = core.generation(view)
        core.clear()
        assert core._latest is None
        again = core.generation(view)
        assert again is not first
        assert all(again.families[name] is not first.families[name]
                   for name in ["target"] + CANDIDATES)

    def test_an_older_view_after_a_newer_one_is_exact(self):
        """Reuse is decided by comparing columns when the latest
        generation is newer than the view asked for."""
        store = build_store()
        old_view = store.read_view()
        store.apply(CAUSE, lambda ts, vs: vs * 3.0)
        core = ExplainCore()
        rank(core, store.read_view())
        assert table_fields(rank(core, old_view)) == \
            table_fields(cold(old_view))

    def test_a_write_to_the_target_drops_its_answer(self):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), scorer="CorrMax")
        rank(core, store.read_view(), target="cause", scorer="CorrMax")
        store.apply(TARGET, lambda ts, vs: vs - 1.0)
        generation = core.generation(store.read_view())
        assert [shape[0] for shape in generation.answers] == ["cause"]
        (answer,) = generation.answers.values()
        stale = {answer.hypotheses[i].name for i in answer.stale}
        assert stale == {"target"}

    def test_group_by_is_the_family_grouping(self):
        store = build_store()
        core = ExplainCore(group_by="tag:host")
        families = core.generation(store.read_view()).families
        assert sorted(f.name for f in families) == ["h0", "h1"]

    def test_concurrent_callers_all_get_cold_tables(self):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view())
        store.apply(LATE, lambda ts, vs: vs + 0.5)
        view = store.read_view()
        tables, errors = [], []

        def ask():
            try:
                tables.append(table_fields(rank(core, view)))
            except Exception as exc:               # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert tables == [table_fields(cold(view))] * 4


class TestRankEqualsCold:
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_first_rank(self, scorer):
        store = build_store()
        view = store.read_view()
        assert table_fields(rank(ExplainCore(), view, scorer=scorer)) == \
            table_fields(cold(view, scorer=scorer))

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_after_an_in_horizon_write(self, scorer, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), scorer=scorer)
        store.insert(LATE, N - 8, 0.25)
        view = store.read_view()
        table = rank(core, view, scorer=scorer)
        assert scored[-1] == ["late"]
        assert table_fields(table) == table_fields(cold(view, scorer=scorer))

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_conditioned_on_a_family(self, scorer):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), scorer=scorer, condition="cause")
        store.apply(SeriesId.make("decoy_1", {"host": "h0"}),
                    lambda ts, vs: -vs)
        view = store.read_view()
        assert table_fields(rank(core, view, scorer=scorer,
                                 condition="cause")) == \
            table_fields(cold(view, scorer=scorer, condition="cause"))

    @pytest.mark.parametrize("scorer", ("CorrMax", "L2"))
    def test_after_a_write_that_moves_the_grid(self, scorer, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), scorer=scorer)
        store.insert(LATE, N + 3, 1.0)
        view = store.read_view()
        table = rank(core, view, scorer=scorer)
        assert sorted(scored[-1]) == CANDIDATES
        assert table_fields(table) == table_fields(cold(view, scorer=scorer))

    def test_within_a_range(self):
        store = build_store()
        core = ExplainCore()
        view = store.read_view()
        assert table_fields(rank(core, view, start=4, end=30)) == \
            table_fields(cold(view, start=4, end=30))


class TestRequestShapes:
    def test_a_repeat_scores_nothing(self, scored):
        store = build_store()
        core = ExplainCore()
        first = rank(core, store.read_view())
        calls = len(scored)
        assert table_fields(rank(core, store.read_view())) == \
            table_fields(first)
        assert len(scored) == calls

    def test_a_subset_takes_its_scores_from_the_full_answer(self, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view())
        calls = len(scored)
        view = store.read_view()
        table = rank(core, view, search=["late", "cause"])
        assert len(scored) == calls
        assert table_fields(table) == \
            table_fields(cold(view, search=["late", "cause"]))

    def test_an_exclusion_takes_its_scores_from_the_full_answer(self, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view())
        calls = len(scored)
        view = store.read_view()
        table = rank(core, view, exclude=["cause"])
        assert len(scored) == calls
        assert "cause" not in table.all_scores
        assert table_fields(table) == \
            table_fields(cold(view, exclude=["cause"]))

    def test_scores_are_not_shared_across_scorers(self, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), scorer="CorrMax")
        rank(core, store.read_view(), scorer="CorrMean")
        assert sorted(scored[-1]) == CANDIDATES

    def test_scorer_names_are_case_insensitive(self, scored):
        store = build_store()
        core = ExplainCore()
        first = rank(core, store.read_view(), scorer="CorrMax")
        calls = len(scored)
        second = rank(core, store.read_view(), scorer="corrmax")
        assert len(scored) == calls
        assert table_fields(first) == table_fields(second)

    @pytest.mark.parametrize("top_k", (1, 3, 10))
    def test_top_k_only_labels_the_table(self, top_k, scored):
        store = build_store()
        core = ExplainCore()
        rank(core, store.read_view(), top_k=10)
        calls = len(scored)
        view = store.read_view()
        table = rank(core, view, top_k=top_k)
        assert len(scored) == calls
        assert table.top_k == top_k
        assert len(table.top(top_k)) == min(top_k, len(CANDIDATES))
        assert table_fields(table) == table_fields(cold(view, top_k=top_k))

    def test_an_empty_search_space_is_an_empty_table(self, scored):
        store = build_store()
        table = rank(ExplainCore(), store.read_view(), search=["target"])
        assert table.results == [] and table.n_hypotheses == 0
        assert table.scorer_name == "CorrMax"
        assert scored == []

    def test_an_unknown_target_raises(self):
        store = build_store()
        with pytest.raises(FamilyError):
            rank(ExplainCore(), store.read_view(), target="nope")

    def test_an_unknown_scorer_raises(self):
        store = build_store()
        with pytest.raises(ScoringError):
            rank(ExplainCore(), store.read_view(), scorer="NoSuchScorer")

    def test_a_live_scorer_scores_everything_and_keeps_nothing(self,
                                                                scored):
        store = build_store()
        core = ExplainCore()
        live = get_scorer("CorrMax")
        view = store.read_view()
        first = rank(core, view, scorer=live)
        second = rank(core, view, scorer=live)
        assert [sorted(call) for call in scored] == [CANDIDATES] * 2
        assert not core.generation(view).answers
        assert not core.generation(view).scorers
        assert table_fields(first) == table_fields(second) == \
            table_fields(cold(view))

    def test_a_live_condition_family_keeps_nothing(self, scored):
        store = build_store()
        core = ExplainCore()
        view = store.read_view()
        families = core.generation(view).families
        live = families["cause"]
        table = rank(core, view, condition=live)
        assert sorted(scored[-1]) == ["decoy_0", "decoy_1", "late"]
        assert not core.generation(view).answers
        assert table_fields(table) == table_fields(rank_families(
            generate_hypotheses(families, "target", condition=live),
            scorer="CorrMax", top_k=10))


@pytest.mark.parametrize("scorer, condition, expected", [
    ("L2", None, True),
    ("L2", "cause", True),
    (L2Scorer(), None, False),
    ("L2", FeatureFamily("z", np.zeros((3, 1)), ["z"], np.arange(3)), False),
    (L2Scorer(), "cause", False),
])
def test_shareable(scorer, condition, expected):
    assert shareable(scorer, condition) is expected


class TestCarriedAnswers:
    def answer(self, store, core):
        rank(core, store.read_view())
        ((shape, answer),) = core._latest.answers.items()
        return shape, answer

    def test_refreshed_keeps_an_untouched_answer_as_is(self):
        store = build_store()
        core = ExplainCore()
        _, answer = self.answer(store, core)
        families = core._latest.families
        assert _refreshed(answer, families, ("target",)) is answer

    def test_refreshed_swaps_and_marks_the_written_x(self):
        store = build_store()
        core = ExplainCore()
        _, answer = self.answer(store, core)
        store.apply(CAUSE, lambda ts, vs: vs + 2.0)
        families = families_from_store(store.read_view(),
                                       previous=core._latest.families)
        fresh = _refreshed(answer, families, ("cause",))
        position = answer.positions["cause"]
        assert fresh.stale == {position}
        assert fresh.hypotheses[position].x is families["cause"]
        assert fresh.hypotheses[position].y is answer.y
        assert [h for i, h in enumerate(fresh.hypotheses) if i != position] \
            == [h for i, h in enumerate(answer.hypotheses) if i != position]

    def test_rebuilt_keeps_surviving_values(self):
        store = build_store()
        core = ExplainCore()
        shape, answer = self.answer(store, core)
        store.insert(LATE, N + 3, 1.0)                   # moves the grid
        families = families_from_store(store.read_view(),
                                       previous=core._latest.families)
        assert families.origin.realigned is None
        fresh = _rebuilt(answer, families, shape)
        assert len(fresh.stale) == len(CANDIDATES)
        assert fresh.positions.keys() == answer.positions.keys()

    def test_rebuilt_is_none_when_the_target_is_gone(self):
        store = build_store()
        core = ExplainCore()
        shape, answer = self.answer(store, core)
        other = TimeSeriesStore()
        other.insert_array(SeriesId.make("cause"), np.arange(N),
                           np.arange(N, dtype=np.float64))
        assert _rebuilt(answer, families_from_store(other.read_view()),
                        shape) is None

    def test_prepared_targets_are_kept_per_scorer(self):
        store = build_store()
        generation = ExplainCore().generation(store.read_view())
        l2, corr = (_PreparedTargets(generation, name)
                    for name in ("l2", "corrmax"))
        key = (generation.families["target"], None)
        l2[key] = "prepared"
        assert l2.get(key) == "prepared" and corr.get(key) is None
        assert generation.targets == {("l2", *key): "prepared"}


class TestSessionOnTheCore:
    @pytest.fixture
    def session(self):
        store = build_store()
        session = ExplainItSession(store)
        session.set_target("target")
        return session

    def test_explain_equals_a_plain_ranking(self, session):
        view = session.store.read_view()
        assert table_fields(session.explain(scorer="L2", top_k=10)) == \
            table_fields(cold(view, scorer="L2"))

    def test_time_ranges_bound_the_families(self, session):
        session.set_time_ranges(2, 40)
        view = session.store.read_view()
        table = session.explain(scorer="CorrMax", top_k=10)
        assert session.families()["target"].n_samples == 38
        assert table_fields(table) == \
            table_fields(cold(view, start=2, end=40))

    def test_without_ranges_the_horizon_follows_ingest(self, session):
        session.explain(scorer="CorrMax")
        assert session.families()["late"].grid[-1] == N - 1
        session.store.insert(LATE, N + 3, 1.0)
        assert session.families()["late"].grid[-1] == N + 3
        view = session.store.read_view()
        assert table_fields(session.explain(scorer="CorrMax", top_k=10)) \
            == table_fields(cold(view, end=N + 4))

    def test_drill_down_is_a_restricted_explain(self, session, scored):
        full = session.explain(scorer="CorrMax")
        calls = len(scored)
        narrowed = session.drill_down(["cause", "late"], scorer="CorrMax")
        assert len(scored) == calls
        assert sorted(narrowed.all_scores) == ["cause", "late"]
        for name, score in narrowed.all_scores.items():
            assert score == full.all_scores[name]

    def test_a_pseudocause_condition_is_never_carried(self, session,
                                                      scored):
        session.condition_on_pseudocause(period=12)
        first = session.explain(scorer="CorrMax")
        second = session.explain(scorer="CorrMax")
        assert [sorted(call) for call in scored] == [CANDIDATES] * 2
        assert not session._core._latest.answers
        assert table_fields(first) == table_fields(second)
        assert first.condition == "pseudocause(target)"

    def test_history_and_the_score_table_follow_each_explain(self,
                                                             session):
        session.explain(scorer="CorrMax")
        session.store.apply(CAUSE, lambda ts, vs: vs * 0.0)
        latest = session.explain(scorer="CorrMax")
        assert len(session.history) == 2 and session.history[-1] is latest
        rows = session.db.sql("SELECT family FROM score ORDER BY rank")
        assert [row["family"] for row in rows.to_dicts()] == \
            [r.family for r in latest.results]

    def test_carried_answers_stay_within_the_bound(self):
        """Distinct drill-downs, each after a write, keep only the
        :data:`ANSWERS` shapes asked last, and every table is the one a
        cold session returns."""
        rng = np.random.default_rng(3)
        store = TimeSeriesStore()
        ts = np.arange(N, dtype=np.int64)
        names = [f"f{i}" for i in range(8)]
        for name in ["target", *names]:
            store.insert_array(SeriesId.make(name, {"host": "h0"}), ts,
                               rng.standard_normal(N))
        searches = [c for k in (2, 3, 4)
                    for c in itertools.combinations(names, k)][:100]
        session = ExplainItSession(store)
        session.set_target("target")
        for i, search in enumerate(searches):
            store.apply(SeriesId.make(names[i % 8], {"host": "h0"}),
                        lambda ts, vs: np.roll(vs, 1))
            table = session.drill_down(search, scorer="CorrMax")
            cold = ExplainItSession(store)
            cold.set_target("target")
            assert table_fields(table) == \
                table_fields(cold.drill_down(search, scorer="CorrMax"))
            assert len(session._core._latest.answers) <= \
                explain_module.ANSWERS
        kept = [shape[2] for shape in session._core._latest.answers]
        assert kept == searches[-explain_module.ANSWERS:]

    def test_prepared_targets_stay_within_the_bound(self):
        """Sixty distinct targets, each explained after a write to a
        series none of them is, leave prepared only the targets of the
        :data:`ANSWERS` answers kept, and every table is the one a cold
        session returns."""
        rng = np.random.default_rng(4)
        store = TimeSeriesStore()
        ts = np.arange(N, dtype=np.int64)
        targets = [f"t{i}" for i in range(60)]
        bystander = SeriesId.make("bystander", {"host": "h0"})
        for series in [bystander, *(SeriesId.make(name, {"host": "h0"})
                                    for name in targets)]:
            store.insert_array(series, ts, rng.standard_normal(N))
        session = ExplainItSession(store)
        for target in targets:
            store.apply(bystander, lambda ts, vs: np.roll(vs, 1))
            session.set_target(target)
            table = session.explain(scorer="L2")
            cold = ExplainItSession(store)
            cold.set_target(target)
            assert table_fields(table) == \
                table_fields(cold.explain(scorer="L2"))
            latest = session._core._latest
            assert len(latest.targets) <= explain_module.ANSWERS
            assert set(latest.targets) == {
                ("l2", answer.y, answer.z)
                for answer in latest.answers.values()}

    def test_group_by_reaches_the_core(self):
        session = ExplainItSession(build_store(), group_by="tag:host")
        session.set_target("h0")
        table = session.explain(scorer="CorrMax")
        assert list(table.all_scores) == ["h1"]


class TestAutoRoute:
    @pytest.mark.parametrize("n, width, conditioned, expected", [
        (200, 1, False, "univariate"),
        (200, 1, True, "joint"),
        (200, 8, False, "joint"),
        (200, 50, False, "joint"),
        (200, 51, False, "projected-50"),
        (200, 300, True, "projected-50"),
        (60, 15, False, "joint"),
        (60, 16, False, "projected-15"),
        (20, 10, False, "joint"),
        (20, 11, False, "projected-10"),
        (1000, 251, False, "projected-50"),
    ])
    def test_route(self, n, width, conditioned, expected):
        x = np.zeros((n, width))
        z = np.zeros((n, 1)) if conditioned else None
        assert AutoScorer.route(x, z) == expected

    def test_a_one_dimensional_x_is_univariate(self):
        assert AutoScorer.route(np.zeros(30)) == "univariate"

    @pytest.mark.parametrize("width, reference", [
        (1, CorrMaxScorer()),
        (6, L2Scorer()),
        (80, ProjectedL2Scorer(d=50)),
    ])
    def test_score_is_the_routed_scorers(self, rng, width, reference):
        n = 200
        y = rng.standard_normal((n, 1))
        x = y @ np.ones((1, width)) + rng.standard_normal((n, width))
        assert AutoScorer().score(x, y) == reference.score(x, y)


class TestPackaging:
    ROOT = Path(__file__).resolve().parents[2]

    def test_setup_declares_the_package(self):
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=self.ROOT, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["repro", "1.0.0"]

    def test_every_package_has_an_init(self):
        """``find_packages("src")`` sees only directories with an
        ``__init__.py``; a subpackage without one would not install."""
        src = self.ROOT / "src" / "repro"
        missing = [str(path.relative_to(src)) for path in src.rglob("*.py")
                   if "__pycache__" not in path.parts
                   and not (path.parent / "__init__.py").exists()]
        assert missing == []
