"""Property-based tests on the estimators (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tests.linmodel.estimators import (
    LinearRegression,
    Ridge,
    StandardScaler,
    r2_score,
)

matrix_strategy = arrays(
    np.float64, shape=st.tuples(st.integers(12, 40), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False,
                       allow_subnormal=False),
)


def _well_conditioned(x: np.ndarray, seed: int) -> np.ndarray:
    """Add tiny jitter so hypothesis' adversarial constant/collinear
    matrices stay numerically well-posed (the properties under test are
    statements about regression behaviour, not about float denormals)."""
    jitter_rng = np.random.default_rng(seed ^ 0x5EED)
    return x + 1e-3 * jitter_rng.standard_normal(x.shape)


class TestOlsProperties:
    @given(matrix_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ols_r2_at_least_zero_in_sample(self, x, seed):
        """With an intercept, OLS never fits worse than the mean."""
        x = _well_conditioned(x, seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(x.shape[0])
        model = LinearRegression().fit(x, y)
        assert model.score(x, y) >= -1e-9

    @given(matrix_strategy, st.integers(0, 2**32 - 1),
           st.floats(0.5, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_ols_scale_equivariance(self, x, seed, scale):
        """Scaling Y scales predictions: pred(c*y) = c*pred(y)."""
        x = _well_conditioned(x, seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(x.shape[0])
        p1 = LinearRegression().fit(x, y).predict(x)
        p2 = LinearRegression().fit(x, scale * y).predict(x)
        # Tolerance scales with the target: near-singular designs make the
        # min-norm solution numerically delicate, not wrong.
        tol = 1e-4 * max(1.0, scale)
        assert np.allclose(p2, scale * p1, rtol=1e-4, atol=tol)


class TestRidgeProperties:
    @given(matrix_strategy, st.integers(0, 2**32 - 1),
           st.floats(0.0, 1e4))
    @settings(max_examples=25, deadline=None)
    def test_ridge_in_sample_r2_no_better_than_ols(self, x, seed, alpha):
        x = _well_conditioned(x, seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(x.shape[0])
        ols_r2 = LinearRegression().fit(x, y).score(x, y)
        ridge_r2 = Ridge(alpha=alpha).fit(x, y).score(x, y)
        assert ridge_r2 <= ols_r2 + 1e-8

    @given(matrix_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance_of_coefficients(self, x, seed):
        """Shifting X only moves the intercept, not the slopes."""
        x = _well_conditioned(x, seed)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(x.shape[0])
        m1 = Ridge(alpha=1.0).fit(x, y)
        m2 = Ridge(alpha=1.0).fit(x + 13.0, y)
        assert np.allclose(m1.coef_, m2.coef_, atol=1e-6)


class TestScalerProperties:
    @given(matrix_strategy)
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, x):
        scaler = StandardScaler().fit(x)
        back = scaler.inverse_transform(scaler.transform(x))
        assert np.allclose(back, x, atol=1e-8)

    @given(matrix_strategy)
    @settings(max_examples=25, deadline=None)
    def test_idempotent_statistics(self, x):
        out = StandardScaler().fit_transform(x)
        again = StandardScaler().fit_transform(out)
        assert np.allclose(out, again, atol=1e-8)


class TestR2Properties:
    @given(st.integers(5, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_r2_upper_bound(self, n, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        pred = rng.standard_normal(n)
        assert r2_score(y, pred) <= 1.0
