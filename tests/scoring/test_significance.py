"""Unit tests for Appendix A: null distributions and corrections.

The Beta law of the NULL r² and the NULL samplers live beside the
Figure 12/13 bench (it is their only caller, and its scipy import stays
off the engine's import path), so these tests load
``benchmarks/bench_figure12_13_null.py`` by path: the benchmark tree is
not an importable package.
"""

import numpy as np
import pytest

from repro.scoring import (
    benjamini_hochberg,
    bonferroni,
    p_value_chebyshev,
)
from repro.scoring.significance import var_adjusted_r2
from tests.bench_modules import load_bench_module


def null_bench():
    """The module ``benchmarks/bench_figure12_13_null.py``."""
    return load_bench_module("bench_figure12_13_null.py")


class TestNullDistribution:
    def test_beta_mean_formula(self):
        """E[r²] = (p-1)/(n-1) under the NULL (Appendix A.1)."""
        dist = null_bench().null_r2_distribution(1000, 500)
        assert dist.mean() == pytest.approx(499 / 999, abs=1e-9)

    def test_mean_tends_to_one_as_p_approaches_n(self):
        low = null_bench().null_r2_distribution(1000, 10).mean()
        high = null_bench().null_r2_distribution(1000, 990).mean()
        assert high > 0.9 > 0.1 > low

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            null_bench().null_r2_distribution(10, 10)
        with pytest.raises(ValueError):
            null_bench().null_r2_distribution(10, 1)

    def test_empirical_ols_matches_beta(self):
        """Figure 12: simulated OLS r² draws follow the Beta law."""
        n, p = 200, 50
        draws = null_bench().sample_null_r2_ols(n, p, n_draws=60, seed=1)
        dist = null_bench().null_r2_distribution(n, p)
        assert draws.mean() == pytest.approx(dist.mean(), abs=0.03)
        # Two-sided coverage: most draws within the central 99% band.
        lo, hi = dist.ppf(0.005), dist.ppf(0.995)
        assert np.mean((draws >= lo) & (draws <= hi)) > 0.9

    def test_adjusted_draws_centred_at_zero(self):
        draws = null_bench().sample_null_r2_ols(200, 50, n_draws=60, seed=2,
                                                adjusted=True)
        assert abs(draws.mean()) < 0.05


class TestChebyshevPValues:
    def test_paper_l2p50_example(self):
        """Appendix A.2: n=1440, p=50 gives p(s) ~ 4.9e-5 / s²."""
        p = p_value_chebyshev(1.0, 1440, 50)
        assert p == pytest.approx(4.9e-5, rel=0.05)

    def test_var_formula(self):
        assert var_adjusted_r2(1440, 50) == pytest.approx(
            2 * 49 / (1390 * 1439))

    def test_decreasing_in_score(self):
        ps = [p_value_chebyshev(s, 1000, 50) for s in (0.01, 0.1, 0.5)]
        assert ps == sorted(ps, reverse=True)

    def test_zero_score_p_one(self):
        assert p_value_chebyshev(0.0, 1000, 50) == 1.0

    def test_capped_at_one(self):
        assert p_value_chebyshev(1e-9, 1000, 500) == 1.0


class TestCorrections:
    def test_bonferroni(self):
        out = bonferroni([0.01, 0.2, 0.5])
        assert out == pytest.approx([0.03, 0.6, 1.0])

    def test_bh_monotone_set(self):
        p = [0.001, 0.002, 0.01, 0.5, 0.9]
        mask = benjamini_hochberg(p, q=0.05)
        assert mask.tolist() == [True, True, True, False, False]

    def test_bh_rejects_nothing_when_all_large(self):
        assert not benjamini_hochberg([0.5, 0.9, 0.7], q=0.05).any()

    def test_bh_accepts_contiguous_prefix(self):
        """BH significance is a prefix of the sorted p-values."""
        rng = np.random.default_rng(0)
        p = rng.random(50)
        mask = benjamini_hochberg(p, q=0.2)
        order = np.argsort(p)
        sorted_mask = mask[order]
        if sorted_mask.any():
            last_true = np.max(np.nonzero(sorted_mask)[0])
            assert sorted_mask[: last_true + 1].all()

    def test_bh_empty(self):
        assert benjamini_hochberg([]).size == 0


class TestRidgeNull:
    def test_cv_ridge_null_concentrates_near_zero(self):
        """Figure 13: cross-validated λ keeps the NULL score near 0."""
        scores, chosen = null_bench().sample_null_r2_ridge_cv(
            150, 60, n_draws=8, seed=0)
        assert np.mean(scores) < 0.1
        assert np.all(chosen >= 0.1)

    def test_cv_prefers_large_lambda_under_null(self):
        _, chosen = null_bench().sample_null_r2_ridge_cv(150, 60, n_draws=8,
                                                         seed=1)
        assert np.median(chosen) >= 1e2

    def test_null_density_keeps_its_sign(self):
        """Figure 13 plots the signed pooled score: a penalty that
        overfits the NULL scores below 0 instead of being clipped to 0."""
        scores, _ = null_bench().sample_null_r2_ridge_cv(150, 60, n_draws=40,
                                                         seed=8)
        assert scores.min() < 0.0
        assert np.mean(scores == 0.0) < 0.5
