"""Parity: every registered scorer, every execution path, one Score Table.

``src/`` has one in-process scoring implementation — the stacked
``score_batch`` kernels behind ``plan_batches`` → ``execute_batches`` —
plus the process pool, whose workers score one hypothesis per job.  The
sequential scorers and the per-hypothesis ranking loop they replaced
live in ``tests/scoring/reference.py`` as the oracle.  This suite sweeps
every scorer in the registry over every hypothesis-list shape and
asserts *bitwise* equality (scores, ranks, p-values, multiple-testing
flags) between in-process and ``"process"`` (matrices in shared memory).
Against the oracle it is bitwise too, except for the ridge-CV scorers:
their Gram-form cross-validation is held to the SVD oracle by
``assert_matches_oracle`` (|Δscore| ≤ 1e-9, order kept outside ties).
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.autoselect import AutoScorer
from repro.core.engine import ExplainItSession
from repro.core.families import FamilySet, FeatureFamily, families_from_store
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.ranking import build_score_table, rank_families
from repro.engine_exec import BACKENDS, HypothesisExecutor
from repro.scoring import Scorer, get_scorer, list_scorers
from repro.serve import QueryServer
from repro.tsdb import SeriesId, TimeSeriesStore
from tests.scoring.reference import (
    assert_matches_oracle,
    reference_for,
    reference_rank,
)


def _make_hypotheses(seed: int, n_families: int = 6, n_samples: int = 60,
                     widths=(2, 3), with_z: bool = False):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    if with_z:
        fams.append(FeatureFamily(
            "cond", rng.standard_normal((n_samples, 2)),
            ["z:0", "z:1"], grid))
    for i in range(n_families):
        coupling = 1.0 if i == 0 else 0.0
        width = widths[i % len(widths)]
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, width)))
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(width)], grid))
    families = FamilySet(fams)
    return generate_hypotheses(families, "target",
                               condition="cond" if with_z else None)


def _store_hypotheses():
    """Families built from a store, re-laid out column-major.

    Single-metric store families land in one shape group of one-column
    designs, and column-major input is the layout on which stacked and
    2-D numpy calls are easiest to get to round differently — so the
    store's C-contiguous matrices are converted with ``asfortranarray``
    to keep that layout covered.
    """
    rng = np.random.default_rng(707)
    ts = np.arange(72)
    base = rng.standard_normal(72)
    store = TimeSeriesStore()
    store.insert_array(SeriesId.make("latency", {"host": "a"}), ts, base)
    for name, hosts, coupling in [("queue", 3, 0.8), ("cpu", 3, 0.0),
                                  ("gc", 1, 0.5), ("threads", 1, 0.0),
                                  ("rpc", 1, 0.2)]:
        for h in range(hosts):
            store.insert_array(
                SeriesId.make(name, {"host": f"h{h}"}), ts,
                coupling * base + rng.standard_normal(72))
    families = FamilySet(
        FeatureFamily(f.name, np.asfortranarray(f.matrix), f.members, f.grid)
        for f in families_from_store(store, group_by="name"))
    hypotheses = generate_hypotheses(families, "latency")
    assert not hypotheses[0].x.matrix.flags["C_CONTIGUOUS"]
    return hypotheses


SHAPES = {
    "narrow": lambda: _make_hypotheses(seed=101),
    # Families wider than 50 features, so L2-P50 / L2-PCA50 project.
    "wide": lambda: _make_hypotheses(seed=303, n_families=3, n_samples=40,
                                     widths=(51, 52)),
    "conditioned": lambda: _make_hypotheses(seed=202, with_z=True),
    "single": lambda: _make_hypotheses(seed=404)[:1],
    "mixed": lambda: _make_hypotheses(seed=505, n_families=6, n_samples=40,
                                      widths=(1, 4, 1, 2, 51)),
    "store": _store_hypotheses,
    "empty": lambda: [],
}


@pytest.fixture(scope="module")
def shapes():
    return {name: build() for name, build in SHAPES.items()}


@pytest.fixture(scope="module")
def process_pool():
    """One pool for the whole sweep; forking one per run dominates it."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


def _hypotheses(shapes, shape, scorer_name):
    hypotheses = shapes[shape]
    if scorer_name == "l1":
        # L1 is coordinate descent in a Python loop: seconds per 50-column
        # fit, and width changes nothing about how it is executed.  Keep
        # the narrow designs, or one wide one where all are wide.
        hypotheses = ([h for h in hypotheses if h.x.n_features < 10]
                      or hypotheses[:1])
    return hypotheses


#: Scorers whose oracle runs the same arithmetic as ``src/``.
EXACT_SCORERS = {"corrmax", "corrmean", "l1"}


def assert_matches_reference(scorer_name, expected, actual):
    if scorer_name in EXACT_SCORERS:
        assert_tables_identical(expected, actual)
    else:
        assert_matches_oracle(actual, expected)


def assert_tables_identical(expected, actual):
    assert actual.scorer_name == expected.scorer_name
    assert actual.target == expected.target
    assert actual.condition == expected.condition
    assert actual.n_hypotheses == expected.n_hypotheses
    assert len(expected.results) == len(actual.results)
    for want, got in zip(expected.results, actual.results):
        assert got.family == want.family
        assert got.rank == want.rank
        assert got.score == want.score          # exact, not approx
        assert got.n_features == want.n_features
        assert got.p_value == want.p_value
        assert got.p_bonferroni == want.p_bonferroni
        assert got.significant_bh == want.significant_bh
    assert actual.all_scores == expected.all_scores


@pytest.mark.parametrize("scorer_name", list_scorers())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_path_matches_the_oracle(scorer_name, shape, shapes,
                                       process_pool):
    hypotheses = _hypotheses(shapes, shape, scorer_name)
    oracle = reference_rank(hypotheses, scorer_name)
    in_process = rank_families(hypotheses, scorer=scorer_name)
    assert_matches_reference(scorer_name, oracle, in_process)
    scorer = get_scorer(scorer_name)
    scores, seconds, _ = HypothesisExecutor(
        n_workers=2, backend="process").score(
        hypotheses, scorer, process_pool=process_pool)
    assert_tables_identical(in_process, build_score_table(
        hypotheses, scores, seconds, scorer.name))


@pytest.mark.parametrize("scorer_name", list_scorers())
@pytest.mark.parametrize("shape", ["mixed", "conditioned", "store"])
def test_score_is_the_batch_of_one(scorer_name, shape, shapes):
    """``score`` and ``score_batch`` agree exactly, whatever the batch."""
    scorer = get_scorer(scorer_name)
    reference = reference_for(scorer_name)
    hypotheses = _hypotheses(shapes, shape, scorer_name)
    _, y, z = hypotheses[0].matrices()
    xs = [h.x.matrix for h in hypotheses]
    together = scorer.score_batch(xs, y, z)
    assert together.shape == (len(xs),)
    for i, x in enumerate(xs):
        alone = scorer.score(x, y, z)
        assert alone == scorer.score_batch([x], y, z)[0]
        assert alone == together[i]
        if scorer_name in EXACT_SCORERS:
            assert alone == reference.score(x, y, z)
        else:
            assert_matches_oracle(alone, reference.score(x, y, z))
    assert scorer.score_batch([], y, z).shape == (0,)


def test_rank_families_backend_plumbing(shapes):
    """rank_families(backend="process") forks its own pool and matches."""
    hypotheses = shapes["narrow"]
    delegated = rank_families(hypotheses, scorer="L2", backend="process",
                              n_workers=2)
    assert_tables_identical(rank_families(hypotheses, scorer="L2"), delegated)
    assert_matches_oracle(delegated, reference_rank(hypotheses, "L2"))


class _ScoreOnly(Scorer):
    """A custom scorer written the per-hypothesis way."""

    name = "score-only"

    def score(self, x, y, z=None):
        return float(np.corrcoef(x[:, 0], y[:, 0])[0, 1] ** 2)


class _BatchOnly(Scorer):
    """A custom scorer written the stacked way."""

    name = "batch-only"

    def score_batch(self, xs, y, z=None):
        return np.array([abs(float(x[-1, 0] - y[-1, 0])) for x in xs])


@pytest.mark.parametrize("make_scorer", [_ScoreOnly, AutoScorer])
def test_score_only_scorers_rank_through_the_default_batch(make_scorer,
                                                           shapes):
    hypotheses = shapes["mixed"]
    oracle = reference_rank(hypotheses, make_scorer())
    assert_tables_identical(
        oracle, rank_families(hypotheses, scorer=make_scorer()))
    assert_tables_identical(
        oracle, rank_families(hypotheses, scorer=make_scorer(),
                              backend="process", n_workers=2))


def test_batch_only_scorer_gets_score_for_free(shapes):
    scorer = _BatchOnly()
    x, y, _ = shapes["narrow"][0].matrices()
    assert scorer.score(x, y) == scorer.score_batch([x], y)[0]
    assert scorer(x, y) == scorer.score(x, y)


def test_scorer_must_override_one_method():
    with pytest.raises(TypeError, match="score or score_batch"):
        class Neither(Scorer):
            name = "neither"


@pytest.mark.parametrize("backend", [None, "process"])
def test_duplicate_family_names_join_by_position(backend):
    """Regression: scores were joined back to hypotheses by family
    *name*, so two hypotheses whose X families share a name both got
    the last one's score."""
    rng = np.random.default_rng(11)
    n = 80
    grid = np.arange(n)
    target = rng.standard_normal(n)
    y = FeatureFamily("target", target[:, None], ["t:0"], grid)
    cause = FeatureFamily(
        "dup", (target + 0.05 * rng.standard_normal(n))[:, None],
        ["cause:0"], grid)
    noise = FeatureFamily("dup", rng.standard_normal((n, 1)),
                          ["noise:0"], grid)
    hypotheses = [Hypothesis(x=cause, y=y), Hypothesis(x=noise, y=y)]
    table = rank_families(hypotheses, scorer="L2", backend=backend,
                          n_workers=2)
    assert_matches_oracle(table, reference_rank(hypotheses, "L2"))
    assert [row.family for row in table.results] == ["dup", "dup"]
    assert table.results[0].score > 0.9
    assert table.results[1].score < 0.1


class TestDeletedBackendsRejected:
    """``backend`` is ``None`` or ``"process"`` at every surface."""

    def test_accepted_values(self):
        assert BACKENDS == (None, "process")

    @pytest.mark.parametrize("backend", ["thread", "batch", "spark"])
    def test_executor_and_rank_families(self, backend, shapes):
        with pytest.raises(ValueError, match="backend"):
            HypothesisExecutor(backend=backend)
        with pytest.raises(ValueError, match="backend"):
            rank_families(shapes["narrow"], scorer="L2", backend=backend)

    @pytest.mark.parametrize("backend", ["thread", "batch"])
    def test_session_and_server(self, backend, small_store):
        session = ExplainItSession(small_store)
        session.set_target("runtime")
        with pytest.raises(ValueError, match="backend"):
            session.explain(scorer="CorrMax", backend=backend)
        with pytest.raises(ValueError, match="backend"):
            QueryServer(small_store, backend=backend)
        with QueryServer(small_store, n_workers=1) as server:
            # The constructor is the only place a server takes a backend.
            with pytest.raises(TypeError, match="backend"):
                server.explain("runtime", scorer="CorrMax", backend=backend)
