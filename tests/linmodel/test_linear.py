"""Unit tests for OLS."""

import numpy as np
import pytest

from tests.linmodel.estimators import LinearRegression, NotFittedError


class TestFit:
    def test_recovers_coefficients(self, rng):
        x = rng.standard_normal((200, 3))
        beta = np.array([1.5, -2.0, 0.5])
        y = x @ beta + 3.0
        model = LinearRegression().fit(x, y)
        assert model.coef_[:, 0] == pytest.approx(beta, abs=1e-8)
        assert model.intercept_[0] == pytest.approx(3.0, abs=1e-8)

    def test_multi_output(self, rng):
        x = rng.standard_normal((100, 2))
        betas = np.array([[1.0, 2.0], [0.5, -1.0]])
        y = x @ betas
        model = LinearRegression().fit(x, y)
        assert model.coef_ == pytest.approx(betas, abs=1e-8)
        assert model.predict(x).shape == (100, 2)

    def test_1d_target_round_trip(self, rng):
        x = rng.standard_normal((50, 2))
        y = x[:, 0] * 2.0
        model = LinearRegression().fit(x, y)
        assert model.predict(x).ndim == 1

    def test_no_intercept(self, rng):
        x = rng.standard_normal((100, 1))
        y = 2.0 * x[:, 0] + 5.0
        model = LinearRegression(fit_intercept=False).fit(x, y)
        assert model.intercept_[0] == 0.0

    def test_perfect_fit_score(self, rng):
        x = rng.standard_normal((60, 2))
        y = x @ np.array([1.0, 1.0])
        assert LinearRegression().fit(x, y).score(x, y) == pytest.approx(1.0)

    def test_underdetermined_uses_min_norm(self, rng):
        # p > n: lstsq returns the minimum-norm interpolating solution.
        x = rng.standard_normal((10, 50))
        y = rng.standard_normal(10)
        model = LinearRegression().fit(x, y)
        assert model.score(x, y) == pytest.approx(1.0, abs=1e-6)


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((3, 1)))

    def test_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            LinearRegression().fit(rng.standard_normal((10, 2)),
                                   rng.standard_normal(9))

    def test_nan_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError):
            LinearRegression().fit(x, np.array([1.0, 2.0]))

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((0, 1)), np.zeros(0))

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((2, 2, 2)), np.zeros(2))


class TestResiduals:
    def test_residuals_orthogonal_to_design(self, rng):
        x = rng.standard_normal((100, 3))
        y = rng.standard_normal(100)
        model = LinearRegression().fit(x, y)
        res = model.residuals(x, y)
        # OLS residuals are orthogonal to the (centred) design columns.
        xc = x - x.mean(axis=0)
        assert np.abs(xc.T @ res).max() < 1e-8

    def test_residuals_sum_to_zero_with_intercept(self, rng):
        x = rng.standard_normal((80, 2))
        y = rng.standard_normal(80)
        res = LinearRegression().fit(x, y).residuals(x, y)
        assert abs(res.sum()) < 1e-8
