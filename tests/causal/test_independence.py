"""Unit tests for partial correlation and the Fisher-z CI test."""

import numpy as np
import pytest

from tests.bench_modules import load_bench_module

_baseline = load_bench_module("pc_baseline.py")
IndependenceTestError = _baseline.IndependenceTestError
ci_test = _baseline.ci_test
partial_correlation = _baseline.partial_correlation


class TestPartialCorrelation:
    def test_plain_correlation_when_no_z(self, rng):
        x = rng.standard_normal(500)
        y = x + 0.5 * rng.standard_normal(500)
        rho = partial_correlation(x, y)
        assert rho == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-10)

    def test_confounder_removed(self, rng):
        z = rng.standard_normal(2000)
        x = z + 0.3 * rng.standard_normal(2000)
        y = z + 0.3 * rng.standard_normal(2000)
        assert abs(partial_correlation(x, y)) > 0.7
        assert abs(partial_correlation(x, y, z[:, None])) < 0.1

    def test_constant_series_zero(self, rng):
        x = np.ones(100)
        y = rng.standard_normal(100)
        assert partial_correlation(x, y) == 0.0

    def test_bounded(self, rng):
        x = rng.standard_normal(50)
        rho = partial_correlation(x, 3 * x)
        assert -1.0 <= rho <= 1.0

    def test_length_mismatch(self, rng):
        with pytest.raises(IndependenceTestError):
            partial_correlation(np.zeros(5), np.zeros(6))


class TestCiTest:
    def test_independent_accepted(self, rng):
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        independent, p = ci_test(x, y)
        assert independent
        assert p > 0.05

    def test_dependent_rejected(self, rng):
        x = rng.standard_normal(500)
        y = x + 0.2 * rng.standard_normal(500)
        independent, p = ci_test(x, y)
        assert not independent
        assert p < 1e-6

    def test_conditional_independence_detected(self, rng):
        z = rng.standard_normal(1000)
        x = z + 0.5 * rng.standard_normal(1000)
        y = z + 0.5 * rng.standard_normal(1000)
        independent, _ = ci_test(x, y, z[:, None])
        assert independent

    def test_insufficient_samples(self, rng):
        with pytest.raises(IndependenceTestError):
            ci_test(np.zeros(4), np.zeros(4), np.zeros((4, 2)))

    def test_alpha_threshold_behaviour(self, rng):
        x = rng.standard_normal(200)
        y = x + 3.0 * rng.standard_normal(200)  # weak dependence
        _, p = ci_test(x, y)
        strict, _ = ci_test(x, y, alpha=min(0.99, p * 2))
        lax, _ = ci_test(x, y, alpha=max(1e-12, p / 2))
        assert strict != lax or p in (0.0, 1.0)
