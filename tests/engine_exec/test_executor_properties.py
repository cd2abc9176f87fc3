"""Property-based tests for HypothesisExecutor edge cases.

Edge cases the satellite checklist calls out: empty hypothesis list,
single hypothesis, more workers than hypotheses, and determinism of the
ranking across worker counts and backends.  The expected ranking comes
from the sequential oracle in ``tests/scoring/reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.engine_exec import BACKENDS, HypothesisExecutor
from repro.scoring import get_scorer
from tests.scoring.reference import reference_rank


def _build_hypotheses(n_families: int, n_samples: int = 48):
    rng = np.random.default_rng(2024)
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n_families):
        coupling = 0.8 if i == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, 2)))
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(2)], grid))
    return generate_hypotheses(FamilySet(fams), "target")


HYPOTHESES = _build_hypotheses(7)
REFERENCE = reference_rank(HYPOTHESES, "CorrMax")
REFERENCE_RANKING = [r.family for r in REFERENCE.results]
REFERENCE_SCORES = dict(REFERENCE.all_scores)


def _score(hypotheses, scorer, **executor_args):
    return HypothesisExecutor(**executor_args).score(hypotheses,
                                                     get_scorer(scorer))


@given(n_workers=st.integers(min_value=1, max_value=9))
@settings(max_examples=12, deadline=None)
def test_ranking_deterministic_across_worker_counts(n_workers):
    table = rank_families(HYPOTHESES, scorer="CorrMax", n_workers=n_workers)
    assert [r.family for r in table.results] == REFERENCE_RANKING
    assert dict(table.all_scores) == REFERENCE_SCORES


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_hypothesis_list(backend):
    scores, seconds, attributed = _score([], "CorrMax", n_workers=2,
                                         backend=backend)
    assert len(scores) == len(seconds) == len(attributed) == 0
    table = rank_families([], scorer="CorrMax", backend=backend,
                          n_workers=2)
    assert table.results == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_hypothesis(backend):
    single = HYPOTHESES[:1]
    _, seconds, _ = _score(single, "CorrMax", n_workers=4, backend=backend)
    assert len(seconds) == 1
    table = rank_families(single, scorer="CorrMax", backend=backend,
                          n_workers=4)
    assert len(table.results) == 1
    row = table.results[0]
    assert row.family == single[0].name
    assert row.rank == 1
    assert row.score == REFERENCE_SCORES[single[0].name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_more_workers_than_hypotheses(backend):
    _, seconds, _ = _score(HYPOTHESES, "CorrMax", n_workers=32,
                           backend=backend)
    assert len(seconds) == len(HYPOTHESES)
    table = rank_families(HYPOTHESES, scorer="CorrMax", backend=backend,
                          n_workers=32)
    assert [r.family for r in table.results] == REFERENCE_RANKING


@pytest.mark.parametrize("n_workers", [1, 3])
def test_process_ranking_deterministic_across_worker_counts(n_workers):
    table = rank_families(HYPOTHESES, scorer="CorrMax", backend="process",
                          n_workers=n_workers)
    assert [r.family for r in table.results] == REFERENCE_RANKING
    assert dict(table.all_scores) == REFERENCE_SCORES


@pytest.mark.parametrize("backend", BACKENDS)
def test_timings_cover_every_hypothesis(backend):
    scores, seconds, _ = _score(HYPOTHESES, "L2", n_workers=2,
                                backend=backend)
    assert len(scores) == len(seconds) == len(HYPOTHESES)
    assert (seconds > 0.0).all()
    table = rank_families(HYPOTHESES, scorer="L2", backend=backend,
                          n_workers=2)
    assert {r.family for r in table.results} == {h.name for h in HYPOTHESES}
