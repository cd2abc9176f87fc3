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
from repro.engine_exec import BACKENDS, HypothesisExecutor
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


@given(n_workers=st.integers(min_value=1, max_value=9))
@settings(max_examples=12, deadline=None)
def test_ranking_deterministic_across_worker_counts(n_workers):
    report = HypothesisExecutor(n_workers=n_workers).run(
        HYPOTHESES, scorer="CorrMax")
    assert [r.family for r in report.score_table.results] == REFERENCE_RANKING
    assert dict(report.score_table.all_scores) == REFERENCE_SCORES


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_hypothesis_list(backend):
    report = HypothesisExecutor(n_workers=2, backend=backend).run(
        [], scorer="CorrMax")
    assert report.timings == []
    assert report.score_table.results == []
    assert report.mean_seconds_per_family() == 0.0
    assert report.max_seconds_per_family() == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_hypothesis(backend):
    single = HYPOTHESES[:1]
    report = HypothesisExecutor(n_workers=4, backend=backend).run(
        single, scorer="CorrMax")
    assert len(report.timings) == 1
    assert len(report.score_table.results) == 1
    row = report.score_table.results[0]
    assert row.family == single[0].name
    assert row.rank == 1
    assert row.score == REFERENCE_SCORES[single[0].name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_more_workers_than_hypotheses(backend):
    report = HypothesisExecutor(n_workers=32, backend=backend).run(
        HYPOTHESES, scorer="CorrMax")
    assert [r.family for r in report.score_table.results] == REFERENCE_RANKING
    assert len(report.timings) == len(HYPOTHESES)


@pytest.mark.parametrize("n_workers", [1, 3])
def test_process_ranking_deterministic_across_worker_counts(n_workers):
    report = HypothesisExecutor(n_workers=n_workers, backend="process").run(
        HYPOTHESES, scorer="CorrMax")
    assert [r.family for r in report.score_table.results] == REFERENCE_RANKING
    assert dict(report.score_table.all_scores) == REFERENCE_SCORES


@pytest.mark.parametrize("backend", BACKENDS)
def test_timings_cover_every_hypothesis(backend):
    report = HypothesisExecutor(n_workers=2, backend=backend).run(
        HYPOTHESES, scorer="L2")
    assert len(report.timings) == len(HYPOTHESES)
    assert all(t.seconds > 0.0 for t in report.timings)
    assert {t.family for t in report.timings} == {h.name for h in HYPOTHESES}
