"""Unit tests for Lasso coordinate descent."""

import numpy as np
import pytest

from tests.linmodel.estimators import Lasso, LinearRegression


class TestLasso:
    def test_zero_alpha_approximates_ols(self, rng):
        x = rng.standard_normal((150, 3))
        y = x @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.standard_normal(150)
        ols = LinearRegression().fit(x, y)
        lasso = Lasso(alpha=0.0, max_iter=2000, tol=1e-10).fit(x, y)
        assert lasso.coef_ == pytest.approx(ols.coef_, abs=1e-4)

    def test_sparsity_increases_with_alpha(self, rng):
        x = rng.standard_normal((100, 10))
        y = x[:, 0] * 2.0 + 0.5 * rng.standard_normal(100)
        weak = Lasso(alpha=0.01).fit(x, y)
        strong = Lasso(alpha=0.5).fit(x, y)
        assert strong.sparsity() >= weak.sparsity()

    def test_selects_true_support(self, rng):
        x = rng.standard_normal((300, 8))
        y = 3.0 * x[:, 2] + 0.2 * rng.standard_normal(300)
        model = Lasso(alpha=0.1).fit(x, y)
        coef = model.coef_[:, 0]
        assert abs(coef[2]) > 1.0
        others = np.delete(np.abs(coef), 2)
        assert others.max() < 0.1

    def test_huge_alpha_zeroes_everything(self, rng):
        x = rng.standard_normal((50, 5))
        y = x @ np.ones(5)
        model = Lasso(alpha=1e6).fit(x, y)
        assert model.sparsity() == 1.0
        # All-zero coefficients predict the mean.
        assert model.predict(x) == pytest.approx(np.full(50, y.mean()))

    def test_multi_output(self, rng):
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal((60, 2))
        model = Lasso(alpha=0.1).fit(x, y)
        assert model.coef_.shape == (4, 2)

    def test_convergence_reported(self, rng):
        x = rng.standard_normal((50, 3))
        y = x @ np.ones(3)
        model = Lasso(alpha=0.01).fit(x, y)
        assert 1 <= model.n_iter_ <= model.max_iter

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Lasso(alpha=-0.1)

    def test_constant_feature_ignored(self, rng):
        x = np.column_stack([np.ones(80), rng.standard_normal(80)])
        y = 2.0 * x[:, 1]
        model = Lasso(alpha=0.01).fit(x, y)
        assert model.coef_[0, 0] == 0.0

    def test_score_reasonable(self, rng):
        x = rng.standard_normal((200, 5))
        y = x @ np.array([1, 0, 0, 0, 0.5]) + 0.3 * rng.standard_normal(200)
        assert Lasso(alpha=0.05).fit(x, y).score(x, y) > 0.8
