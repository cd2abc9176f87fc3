"""Unit tests for hypothesis ranking and the Score Table."""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import (
    DEFAULT_TOP_K,
    build_score_table,
    rank_families,
)


@pytest.fixture
def toy_families(rng):
    n = 120
    target = rng.standard_normal(n)
    fams = [
        FeatureFamily("target", (target + 0.0)[:, None], ["t:0"],
                      np.arange(n)),
        FeatureFamily("strong", (target + 0.2 * rng.standard_normal(n))
                      [:, None], ["s:0"], np.arange(n)),
        FeatureFamily("weak", (0.4 * target + rng.standard_normal(n))
                      [:, None], ["w:0"], np.arange(n)),
        FeatureFamily("noise", rng.standard_normal((n, 1)), ["n:0"],
                      np.arange(n)),
    ]
    return FamilySet(fams)


class TestRankFamilies:
    def test_order_by_decreasing_score(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="L2")
        scores = [r.score for r in table.results]
        assert scores == sorted(scores, reverse=True)
        assert table.results[0].family == "strong"

    def test_ranks_are_one_based_and_dense(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="CorrMax")
        assert [r.rank for r in table.results] == [1, 2, 3]

    def test_full_ranking_retained(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="CorrMax", top_k=1)
        assert len(table.results) == 3        # full list kept
        assert len(table.top(1)) == 1

    def test_rank_of_and_score_of(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="CorrMax")
        assert table.rank_of("strong") == 1
        assert table.rank_of("missing") is None
        assert 0.0 <= table.score_of("noise") <= 1.0

    def test_significance_annotation(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="L2")
        strong = table.results[0]
        noise = next(r for r in table.results if r.family == "noise")
        assert strong.p_value < noise.p_value
        assert strong.significant_bh

    def test_to_table_round_trip(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="CorrMax").to_table()
        assert "family" in table.columns
        assert len(table) == 3

    def test_render_contains_families(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        text = rank_families(hyps, scorer="CorrMax").render()
        assert "strong" in text
        assert "Scorer: CorrMax" in text

    def test_empty_hypotheses(self):
        table = rank_families([], scorer="CorrMax")
        assert table.results == []

    def test_table_built_from_position_aligned_scores(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        fixed = {"strong": 0.1, "weak": 0.9, "noise": 0.5}
        table = build_score_table(
            hyps, [fixed[h.name] for h in hyps],
            [float(i) for i in range(len(hyps))], "fixed", total_seconds=9.0)
        assert [r.family for r in table.results] == ["weak", "noise",
                                                     "strong"]
        assert table.all_scores == fixed
        assert table.scorer_name == "fixed" and table.total_seconds == 9.0
        by_name = {h.name: i for i, h in enumerate(hyps)}
        assert all(r.seconds == by_name[r.family] for r in table.results)

    def test_default_top_k_is_20(self):
        assert DEFAULT_TOP_K == 20

    def test_timings_recorded(self, toy_families):
        hyps = generate_hypotheses(toy_families, "target")
        table = rank_families(hyps, scorer="L2")
        assert all(r.seconds >= 0.0 for r in table.results)
        assert table.total_seconds > 0.0
