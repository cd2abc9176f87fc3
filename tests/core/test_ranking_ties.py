"""Regression tests pinning deterministic tie-breaking in the ranking.

Exact score ties are common in replayed incidents (duplicate metrics,
saturated correlation scores).  The Score Table breaks them by family
name via :func:`repro.core.ranking.ranking_sort_key`, so the ranking —
and the replay scorecard graded from it — never depends on hypothesis
input order or scheduling.  NaN scores sort after every real score,
name-ordered among themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import Hypothesis, generate_hypotheses
from repro.core.ranking import (
    build_score_table,
    rank_families,
    ranking_sort_key,
)
from repro.scoring import list_scorers
from repro.scoring.table import rank_scores

#: Deliberately non-alphabetical insertion order.
TIED_NAMES = ("zeta", "alpha", "mid", "beta", "omega")


def tied_families(order=TIED_NAMES):
    """A target plus identical-matrix candidates => exact score ties."""
    rng = np.random.default_rng(42)
    n = 96
    grid = np.arange(n)
    target = rng.standard_normal(n)
    candidate = target + 0.3 * rng.standard_normal(n)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for name in order:
        fams.append(FeatureFamily(name, candidate.copy()[:, None],
                                  [f"{name}:0"], grid))
    return FamilySet(fams)


class TestRankingSortKey:
    def test_higher_score_first(self):
        assert ranking_sort_key(0.9, "b") < ranking_sort_key(0.5, "a")

    def test_exact_tie_broken_by_name(self):
        assert ranking_sort_key(0.5, "alpha") < ranking_sort_key(0.5, "beta")

    def test_nan_sorts_after_any_score(self):
        assert ranking_sort_key(-1e9, "z") < ranking_sort_key(math.nan, "a")

    def test_nan_rows_name_ordered(self):
        a = ranking_sort_key(math.nan, "alpha")
        b = ranking_sort_key(math.nan, "beta")
        assert a < b
        # The key substitutes a constant for NaN: comparable, not NaN.
        assert a == (1, 0.0, "alpha")


@given(st.lists(st.tuples(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, math.inf, -math.inf,
                     math.nan, 0.25]),
    st.sampled_from(["a", "b", "ab", "B", "é", "zeta", ""])), min_size=1,
    max_size=24))
def test_ranking_order_is_the_sort_key_order(rows):
    """The vectorised order the Score Table is ranked in equals a stable
    sort by ``ranking_sort_key`` (the per-row reference), signed zeros,
    infinities, NaNs and repeated names included."""
    scores = np.array([score for score, _ in rows], dtype=np.float64)
    names = [name for _, name in rows]
    y = FeatureFamily("target", np.zeros((4, 1)), ["t:0"])
    hyps = [Hypothesis(FeatureFamily(name, np.zeros((4, 1)), [f"{name}:0"]),
                       y) for name in names]
    ranking = rank_scores(hyps, scores, np.zeros(len(rows)),
                          np.ones(len(rows)))
    assert ranking.order.tolist() == sorted(
        range(len(rows)),
        key=lambda i: ranking_sort_key(float(scores[i]), names[i]))


class TestTiedScores:
    def test_ties_pinned_to_alphabetical_order(self):
        families = tied_families()
        hyps = generate_hypotheses(families, "target")
        table = rank_families(hyps, scorer="L2")
        scores = {r.score for r in table.results}
        assert len(scores) == 1, "fixture must produce an exact tie"
        assert [r.family for r in table.results] == sorted(TIED_NAMES)

    def test_order_independent_of_input_order(self):
        orders = (TIED_NAMES, tuple(reversed(TIED_NAMES)),
                  tuple(sorted(TIED_NAMES)))
        rankings = []
        for order in orders:
            hyps = generate_hypotheses(tied_families(order), "target")
            table = rank_families(hyps, scorer="CorrMax")
            rankings.append([r.family for r in table.results])
        assert rankings[0] == rankings[1] == rankings[2] == sorted(TIED_NAMES)

    @pytest.mark.parametrize("scorer", list_scorers())
    def test_tie_break_is_by_name_for_stacked_scores(self, scorer):
        """Identical candidates stacked into one call score bitwise alike
        under every registered scorer, so their order is by name."""
        hyps = generate_hypotheses(tied_families(), "target")
        table = rank_families(hyps, scorer=scorer)
        assert [r.family for r in table.results] == sorted(TIED_NAMES)


class TestNanScores:
    def test_nan_rows_sort_last_name_ordered(self):
        families = tied_families()
        hyps = generate_hypotheses(families, "target")
        nan_families = {"zeta", "beta"}
        scores = [math.nan if h.x.name in nan_families else 0.5
                  for h in hyps]
        table = build_score_table(hyps, scores, [0.0] * len(hyps), "fixed")
        names = [r.family for r in table.results]
        assert names == ["alpha", "mid", "omega", "beta", "zeta"]
