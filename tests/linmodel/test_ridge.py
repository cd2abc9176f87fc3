"""Unit tests for the Ridge oracle and its SVD factorisation."""

import numpy as np
import pytest

from tests.linmodel.estimators import LinearRegression, Ridge, RidgeSvdFactor


class TestRidge:
    def test_zero_alpha_matches_ols(self, rng):
        x = rng.standard_normal((100, 4))
        y = x @ np.array([1.0, -1.0, 2.0, 0.0]) + rng.standard_normal(100)
        ols = LinearRegression().fit(x, y)
        ridge = Ridge(alpha=0.0).fit(x, y)
        assert ridge.coef_ == pytest.approx(ols.coef_, abs=1e-8)

    def test_shrinkage_monotone_in_alpha(self, rng):
        x = rng.standard_normal((100, 4))
        y = x @ np.ones(4) + rng.standard_normal(100)
        norms = []
        for alpha in (0.0, 1.0, 100.0, 10000.0):
            model = Ridge(alpha=alpha).fit(x, y)
            norms.append(float(np.linalg.norm(model.coef_)))
        assert norms == sorted(norms, reverse=True)

    def test_huge_alpha_predicts_mean(self, rng):
        x = rng.standard_normal((100, 3))
        y = x @ np.ones(3) + 5.0
        model = Ridge(alpha=1e12).fit(x, y)
        assert model.predict(x) == pytest.approx(np.full(100, y.mean()),
                                                 abs=1e-3)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1.0)

    def test_wide_matrix_supported(self, rng):
        # p > n is the regime Appendix A's ridge analysis covers.
        x = rng.standard_normal((30, 100))
        y = rng.standard_normal(30)
        model = Ridge(alpha=1.0).fit(x, y)
        assert model.predict(x).shape == (30,)

    def test_multi_output(self, rng):
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 4))
        model = Ridge(alpha=1.0).fit(x, y)
        assert model.coef_.shape == (3, 4)
        assert model.predict(x).shape == (50, 4)

    def test_ridge_normal_equation_identity(self, rng):
        """SVD solution equals (XᵀX + λI)⁻¹ XᵀY on centred data."""
        x = rng.standard_normal((60, 5))
        y = rng.standard_normal(60)
        alpha = 3.7
        model = Ridge(alpha=alpha).fit(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        direct = np.linalg.solve(xc.T @ xc + alpha * np.eye(5), xc.T @ yc)
        assert model.coef_[:, 0] == pytest.approx(direct, abs=1e-8)


class TestRidgePath:
    def test_factor_reuse(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 2))
        factor = RidgeSvdFactor(x, y)
        coef1, _ = factor.solve(1.0)
        coef2, _ = factor.solve(1.0)
        assert np.array_equal(coef1, coef2)
