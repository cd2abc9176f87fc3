"""Unit tests for multi-query rank aggregation (``benchmarks/rank_fusion.py``,
beside ``bench_ablations.py``, its one user)."""

import pytest

from repro.core.ranking import RankedFamily, ScoreTable
from tests.bench_modules import load_bench_module

_fusion = load_bench_module("rank_fusion.py")
borda_fusion = _fusion.borda_fusion
mean_score_fusion = _fusion.mean_score_fusion
reciprocal_rank_fusion = _fusion.reciprocal_rank_fusion


def table(scorer: str, ordered: list[tuple[str, float]]) -> ScoreTable:
    results = [
        RankedFamily(rank=i + 1, family=name, score=score,
                     n_features=1, p_value=0.01)
        for i, (name, score) in enumerate(ordered)
    ]
    return ScoreTable(results=results, scorer_name=scorer, target="y",
                      n_hypotheses=len(ordered),
                      all_scores={n: s for n, s in ordered})


@pytest.fixture
def three_tables():
    return [
        table("CorrMax", [("a", 0.9), ("b", 0.8), ("c", 0.1)]),
        table("L2", [("b", 0.7), ("a", 0.6), ("c", 0.2)]),
        table("L2-P50", [("a", 0.5), ("c", 0.4), ("b", 0.3)]),
    ]


class TestReciprocalRankFusion:
    def test_consensus_winner(self, three_tables):
        fused = reciprocal_rank_fusion(three_tables)
        assert fused.results[0].family == "a"      # ranks 1, 2, 1
        assert fused.rank_of("c") == 3

    def test_appearance_counts(self, three_tables):
        fused = reciprocal_rank_fusion(three_tables)
        assert all(r.appearances == 3 for r in fused.results)

    def test_missing_families_tolerated(self):
        fused = reciprocal_rank_fusion([
            table("CorrMax", [("a", 0.9), ("b", 0.8)]),
            table("L2", [("b", 0.7)]),
        ])
        assert fused.rank_of("a") is not None
        row_a = next(r for r in fused.results if r.family == "a")
        assert row_a.appearances == 1

    def test_k_flattens(self, three_tables):
        sharp = reciprocal_rank_fusion(three_tables, k=1.0)
        flat = reciprocal_rank_fusion(three_tables, k=1000.0)
        spread_sharp = (sharp.results[0].fused_score
                        - sharp.results[-1].fused_score)
        spread_flat = (flat.results[0].fused_score
                       - flat.results[-1].fused_score)
        assert spread_sharp > spread_flat

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion([])

    def test_render(self, three_tables):
        text = reciprocal_rank_fusion(three_tables).render(2)
        assert "RRF" in text and "a" in text


class TestBordaFusion:
    def test_positional_votes(self, three_tables):
        fused = borda_fusion(three_tables)
        # a: 2+1+2=5, b: 1+2+0=3, c: 0+0+1=1
        assert [r.family for r in fused.results] == ["a", "b", "c"]
        assert fused.results[0].fused_score == 5.0


class TestMeanScoreFusion:
    def test_same_scorer_ok(self):
        fused = mean_score_fusion([
            table("L2", [("a", 0.8), ("b", 0.4)]),
            table("L2", [("a", 0.6), ("b", 0.6)]),
        ])
        assert fused.results[0].family == "a"
        assert fused.results[0].fused_score == pytest.approx(0.7)

    def test_mixed_scorers_rejected(self, three_tables):
        with pytest.raises(ValueError):
            mean_score_fusion(three_tables)


class TestFusionOnRealSession:
    def test_fused_ranking_stabilises_cause(self, rng):
        """Fusing CorrMax and L2 rankings keeps the true cause on top
        even when the individual scorers disagree on the rest."""
        import numpy as np
        from repro.core.families import FamilySet, FeatureFamily
        from repro.core.hypothesis import generate_hypotheses
        from repro.core.ranking import rank_families
        n = 200
        t = rng.standard_normal(n)
        fams = [FeatureFamily("target", t[:, None], ["t"], np.arange(n)),
                FeatureFamily("cause", (t + 0.3 * rng.standard_normal(n))
                              [:, None], ["c"], np.arange(n))]
        for i in range(6):
            fams.append(FeatureFamily(
                f"noise_{i}", rng.standard_normal((n, 2)),
                [f"n{i}:0", f"n{i}:1"], np.arange(n)))
        families = FamilySet(fams)
        hyps = generate_hypotheses(families, "target")
        tables = [rank_families(hyps, scorer=s)
                  for s in ("CorrMax", "L2", "L2-P50")]
        fused = reciprocal_rank_fusion(tables)
        assert fused.results[0].family == "cause"
